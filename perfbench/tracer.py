"""Per-layer spans and counts, recorded by wrapping mvmocap's public functions.

The wrappers are installed from outside the package: the names `mvmocap.cli`
imported from each module, plus the module globals that `io.write_transforms`,
`voxel.estimate_skeleton` and `retarget.retarget_sequence` look up at call
time. Nothing under `src/` changes.

Span keys are `<layer>.<what>`. No wrapped function calls another wrapped one,
but self time is still computed with a span stack, so a nested call would be
subtracted from its parent instead of being counted twice.
"""

from __future__ import annotations

import math
import os
import time
from collections import defaultdict

import mvmocap.cli as cli
import mvmocap.io as mio
import mvmocap.retarget as retarget
import mvmocap.voxel as voxel
from mvmocap.skeleton import STATUS_OK

# (module, attribute, span key); generators get one span per next().
_TIMED = (
    (mio, "load_cameras", "io.load_calib"),
    (mio, "skeleton_line", "io.write"),
    (mio, "transform_line", "io.write"),
    (cli, "estimate_skeleton", "voxel.estimate"),
    (retarget, "retarget_frame", "retarget.frame"),
    (cli, "mean_abs_3d_err", "metrics.err3d"),
    (cli, "avg_2d_err", "metrics.err2d"),
    (cli, "project", "geometry.project"),
    (cli, "render_overlay_svg", "overlay.render"),
)
_STREAMS = (
    (mio, "read_keypoints", "io.read_keypoints"),
    (mio, "read_skeletons", "io.read_skeletons"),
)
# Span keys whose individual durations are kept for percentiles.
_KEEP_DURATIONS = ("voxel.estimate", "retarget.frame")


class Tracer:
    """Collects spans and counts for one command call while installed."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = {k: [] for k in _KEEP_DURATIONS}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, key: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        self.self_s[key] += dt - child
        self.calls[key] += 1
        if self._stack:
            self._stack[-1] += dt
        if key in self.durations:
            self.durations[key].append(dt)

    def _timed(self, fn, key: str):
        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(key, t0)
            self._count(key, args, result)
            return result

        return wrapper

    def _stream(self, fn, key: str):
        def wrapper(path, *args, **kwargs):
            self.counts["io.bytes_read"] += os.path.getsize(path)
            it = fn(path, *args, **kwargs)
            while True:
                t0 = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(key, t0)
                yield item

        return wrapper

    def _count(self, key: str, args: tuple, result) -> None:
        c = self.counts
        if key == "io.write":
            c["io.bytes_written"] += len(result) + 1  # the caller appends "\n"
        elif key == "io.load_calib":
            c["io.bytes_read"] += os.path.getsize(args[0])
        elif key == "overlay.render":
            c["overlay.svgs"] += 1
            c["overlay.svg_bytes"] += len(result.encode("utf-8"))
        elif key == "retarget.frame":
            for status in result.statuses.values():
                c["retarget.bones_ok" if status == STATUS_OK else "retarget.bones_fell_back"] += 1

    def _count_joint(self, fn):
        """Counts from each JointEstimate; not timed, it runs inside voxel.estimate."""

        def wrapper(observations, cameras, config):
            est = fn(observations, cameras, config)
            c = self.counts
            c["voxel.joints_attempted"] += 1
            c["voxel.nodes"] += est.nodes_visited
            if est.status == STATUS_OK:
                c["voxel.joints_ok"] += 1
                c["voxel.candidates_ok"] += est.candidate_count
                halvings = math.log2(config.initial_volume.edges[0] / est.terminal_edges[0])
                c["voxel.levels_ok"] += round(halvings) + 1
            elif est.nodes_visited == 0:
                c["voxel.joints_short_circuit"] += 1
            return est

        return wrapper

    # -- install / remove ---------------------------------------------------

    def _patch(self, module, name: str, replacement) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def install(self) -> None:
        for module, name, key in _TIMED:
            self._patch(module, name, self._timed(getattr(module, name), key))
        for module, name, key in _STREAMS:
            self._patch(module, name, self._stream(getattr(module, name), key))
        self._patch(voxel, "estimate_joint", self._count_joint(voxel.estimate_joint))

    def remove(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "durations": self.durations,
        }
