"""Command-line pipeline: synth, reconstruct, retarget, eval, render-overlay.

Each subcommand takes only the flags it reads, and settings come from flags
alone: an unknown flag, or a required one left out, exits 2 through argparse.
Frames stream through JSON-lines files end to end so long sequences never
require whole-run memory residency. Streams given together (estimated and
truth skeletons, plus keypoints for `eval`; keypoints and skeletons for
`render-overlay`) are read in lockstep, so they must list the same frames in
the same order, as `reconstruct` writes them. Both commands read up to
REPROJECT_CHUNK_FRAMES frames at a time and reproject the chunk's skeletons
into every calibrated view with one `project` call, an (N, V, 15, 2) array,
NaN where a joint is missing or behind the camera, whose rows they compare
with the keypoint tables. `eval` takes `--calib` and `--keypoints` together
or not at all.
Exit codes: 0 on success, 2 for input or parse errors and for an output that
cannot be created or written, 3 at the first frame where streams read together
disagree or one ends early. A run that exits 2 or 3 leaves no partial scene,
skeleton stream, transform stream, report or overlay set behind: the single
files are written to a temporary sibling, renamed on success, and every command
creates its output's parent directory, and on failure removes the directories it
created while they are empty. Warnings go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import islice, zip_longest
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import io as mio
from . import voxel
from .geometry import project, stack_cameras
# avg_2d_err and mean_abs_3d_err stay bound here because perfbench/tracer.py wraps cli.avg_2d_err and cli.mean_abs_3d_err.
from .metrics import avg_2d_err, mean_abs_3d_err, mean_lengths, sequence_mean
# render_overlay_svg stays bound here because perfbench/tracer.py wraps cli.render_overlay_svg.
from .overlay import render_overlay_svg, render_overlay_svgs
from .retarget import retarget_sequence
from .skeleton import DETECTED_JOINTS
from .synth import generate_scene, render_observations
# estimate_skeleton stays bound here because perfbench/tracer.py wraps cli.estimate_skeleton.
from .voxel import Cube, EstimatorConfig, estimate_skeleton, estimate_skeletons


class FrameMismatch(ValueError):
    """Streams read together disagree on frame indices or on length."""


EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MISMATCH = 3

# Frames per `project` call in `eval` and `render-overlay`; `eval` at 32 and 64 was no faster and held more memory.
REPROJECT_CHUNK_FRAMES = 16


@dataclass
class RunConfig:
    """Inputs, output and estimator settings of one `reconstruct` run."""

    calib: str = ""
    keypoints: str = ""
    out: str = ""
    sigma: int = 4
    delta: tuple[float, float, float] = (10.0, 10.0, 10.0)
    volume_edges: tuple[float, float, float] = (4000.0, 3000.0, 4000.0)
    volume_center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    min_confidence: float = 0.1
    timing: bool = False

    def estimator_config(self) -> EstimatorConfig:
        try:
            return EstimatorConfig(
                sigma=self.sigma,
                delta=self.delta,
                initial_volume=Cube(center=np.asarray(self.volume_center), edges=self.volume_edges),
                min_confidence=self.min_confidence,
            )
        except ValueError as exc:
            raise mio.InputParseError(f"invalid estimator settings: {exc}") from exc


def _parse_triple(text: str, flag: str, sep: str = "x", form: str = "WxHxL") -> tuple[float, float, float]:
    parts = text.lower().split(sep)
    if len(parts) != 3:
        raise mio.InputParseError(f"{flag} expects {form}, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise mio.InputParseError(f"{flag} expects numeric {form}, got {text!r}") from exc


def _parse_volume(text: str) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    size_part, at, center_part = text.partition("@")
    center = _parse_triple(center_part, "--volume center", ",", "X,Y,Z") if at else (0.0, 0.0, 0.0)
    return _parse_triple(size_part, "--volume"), center


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        calib=args.calib, keypoints=args.keypoints, out=args.out,
        sigma=args.sigma, min_confidence=args.min_conf, timing=args.timing,
    )
    if args.delta:
        cfg.delta = _parse_triple(args.delta, "--delta")
    if args.volume:
        cfg.volume_edges, cfg.volume_center = _parse_volume(args.volume)
    return cfg


def _out_file(text: str) -> Path:
    """--out as the path of a file; InputParseError when it names none, as "", "." and "/" do."""
    path = Path(text)
    if not path.name:
        raise mio.InputParseError(f"--out {text!r} names no file")
    return path


def _out_dir(text: str) -> Path:
    """--out as the path of a directory; InputParseError for "", which Path reads as the current directory."""
    if not text:
        raise mio.InputParseError(f"--out {text!r} names no directory")
    return Path(text)


@contextmanager
def _directory(path: Path) -> Iterator[None]:
    """Create the directory path and its missing parents; if the block raises,
    remove the ones created here, innermost first and only while empty. A
    directory that already existed is never removed."""
    created = [d for d in (path, *path.parents) if not d.exists()]  # innermost first
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        for made in created:
            with suppress(OSError):  # not empty: something else was written there
                made.rmdir()
        raise


@contextmanager
def _output(path: str | Path) -> Iterator[Path]:
    """A temporary sibling of path to write to, renamed to path when the block succeeds.

    The parent directory is created first. If the block or the rename
    raises, the temporary file is removed, and so are the directories made
    for it, so a failed run leaves nothing at path.
    """
    path = Path(path)
    part = path.with_name(path.name + ".part")
    with _directory(path.parent):
        try:
            yield part
            part.replace(path)
        except BaseException:
            part.unlink(missing_ok=True)
            raise


def _write_bytes(path: str, data: bytes) -> None:
    """Create or truncate the file at path and write all of data to it."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    except OSError as exc:  # os.write's error names no file
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        os.close(fd)


# -- subcommands -----------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args.out)
    try:
        scene = generate_scene(
            preset=args.preset,
            frames=args.frames,
            noise_px=args.noise,
            dropout=args.dropout,
            seed=args.seed,
        )
    except ValueError as exc:
        raise mio.InputParseError(str(exc)) from exc
    observations = render_observations(scene)
    if any(np.isinf(obs.table).any() for obs in observations):  # NaN marks a dropped detection
        raise mio.InputParseError(f"--noise {args.noise} puts keypoints outside the range of a float")
    with (_output(out_dir / "calib.json") as calib, _output(out_dir / "keypoints.jsonl") as keypoints,
          _output(out_dir / "truth.jsonl") as truth):  # renamed only once all three are written
        mio.save_cameras(calib, scene.cameras)
        mio.write_keypoints(keypoints, observations)
        mio.write_skeletons(truth, scene.truth)
    print(f"wrote scene '{args.preset}' ({args.frames} frames) to {out_dir}")
    return EXIT_OK


def cmd_reconstruct(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    out_file = _out_file(cfg.out)
    phases = dict.fromkeys(("load_inputs", "parse_inputs", "estimate_3d_joints", "write_output"), 0.0)  # ms
    frames = 0
    wall_start = time.perf_counter()

    t0 = time.perf_counter()
    cameras = mio.load_cameras(cfg.calib)
    config = cfg.estimator_config()
    phases["load_inputs"] += (time.perf_counter() - t0) * 1e3
    if cfg.sigma > len(cameras):
        print(f"warning: sigma={cfg.sigma} exceeds the {len(cameras)} calibrated cameras; no joint can reach consensus",
              file=sys.stderr)

    reader = mio.read_keypoints(cfg.keypoints, {c.id for c in cameras})
    t0 = time.perf_counter()
    with _output(out_file) as part, open(part, "w", encoding="utf-8") as out:
        phases["write_output"] += (time.perf_counter() - t0) * 1e3  # creating the temporary file
        while True:
            t0 = time.perf_counter()
            chunk = list(islice(reader, voxel.CHUNK_FRAMES))  # JSON decoding happens here
            phases["parse_inputs"] += (time.perf_counter() - t0) * 1e3
            if not chunk:
                break

            t0 = time.perf_counter()
            skeletons = estimate_skeletons(chunk, cameras, config)
            phases["estimate_3d_joints"] += (time.perf_counter() - t0) * 1e3

            t0 = time.perf_counter()
            out.writelines(mio.skeleton_line(skel) + "\n" for skel in skeletons)
            phases["write_output"] += (time.perf_counter() - t0) * 1e3
            frames += len(chunk)
        t0 = time.perf_counter()
    phases["write_output"] += (time.perf_counter() - t0) * 1e3  # closing it and renaming it to the output

    total_ms = (time.perf_counter() - wall_start) * 1e3
    if cfg.timing:
        print(json.dumps({"frames": frames, "total_ms": round(total_ms, 3),
                          "phases": {k: round(v, 3) for k, v in phases.items()}}), file=sys.stderr)
    return EXIT_OK


def cmd_retarget(args: argparse.Namespace) -> int:
    out_file = _out_file(args.out)
    skeletons = mio.read_skeletons(args.skeleton)
    with _output(out_file) as part:
        mio.write_transforms(part, retarget_sequence(skeletons))
    return EXIT_OK


def _lockstep(*streams: tuple[str, Iterable]) -> Iterator[tuple]:
    """One record from each named (name, records) stream per step, all of one frame.

    Raises FrameMismatch at the first step where the records' frame indices
    differ or some streams have ended while others have not.
    """
    names = [name for name, _ in streams]
    for records in zip_longest(*(recs for _, recs in streams)):
        if any(r is None for r in records) or len({r.frame for r in records}) > 1:
            state = ", ".join(f"{n} {'ended' if r is None else f'frame {r.frame}'}" for n, r in zip(names, records))
            raise FrameMismatch(f"streams out of step: {state}")
        yield records


def _detections(observations: list, column: dict[int, int], views: int) -> tuple[np.ndarray, tuple[list[int], list[int]]]:
    """The chunk's keypoints as an (N, views, 14, 2) array by calibrated column,
    NaN where a frame does not list the view or the view misses the joint,
    and the (frame, column) index lists of the listed views, in listed order."""
    detected = np.full((len(observations), views, len(DETECTED_JOINTS), 2), np.nan)
    listed: tuple[list[int], list[int]] = ([], [])
    for k, obs in enumerate(observations):
        columns = [column[view_id] for view_id in obs.view_ids]
        detected[k, columns] = obs.table[:, :, :2]
        listed[0].extend([k] * len(columns))
        listed[1].extend(columns)
    return detected, listed


@np.errstate(over="ignore")  # an error that overflows to inf exits 2 below
def cmd_eval(args: argparse.Namespace) -> int:
    out_base = _out_file(args.out)
    streams = [("estimated", mio.read_skeletons(args.skeleton)), ("truth", mio.read_skeletons(args.truth))]
    views = None
    if args.calib or args.keypoints:
        if not (args.calib and args.keypoints):
            raise mio.InputParseError(f"missing required input(s): --{'keypoints' if args.calib else 'calib'}")
        cameras = mio.load_cameras(args.calib)
        views = stack_cameras(cameras, point_axes=1)
        column = {view_id: v for v, view_id in enumerate(views.ids)}
        streams.append(("keypoints", mio.read_keypoints(args.keypoints, column)))

    per_frame = []
    frames_used = []
    total_joints = 0
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    steps = _lockstep(*streams)
    while chunk := list(islice(steps, REPROJECT_CHUNK_FRAMES)):
        positions = np.stack([est.positions for est, *_ in chunk])
        err3d, joints3d = (a.tolist() for a in mean_lengths(positions - np.stack([tru.positions for _, tru, *_ in chunk])))
        if views is not None:  # (N, V, 14, 2): every skeleton of the chunk in every calibrated view
            pixels = project(positions[:, None], views)[:, :, : len(DETECTED_JOINTS)]
            detected, _ = _detections([obs for *_, obs in chunk], column, len(views.ids))
            err2d, joints2d = (a.tolist() for a in mean_lengths(detected - pixels))
        for k, (est, *_) in enumerate(chunk):
            if not joints3d[k]:
                print(f"warning: frame {est.frame} has no comparable joints; skipped", file=sys.stderr)
            else:
                if not math.isfinite(err3d[k]):
                    raise mio.InputParseError(f"{args.skeleton}: frame {est.frame}: 3D error against {args.truth} is not finite")
                per_frame.append(err3d[k])
                frames_used.append(est.frame)
                total_joints += joints3d[k]
            if views is None:
                continue
            for v, view_id in enumerate(views.ids):  # ascending ids; a view the frame does not list has no rows
                if joints2d[k][v]:
                    if not math.isfinite(err2d[k][v]):
                        raise mio.InputParseError(f"{args.skeleton}: frame {est.frame}: reprojection error in view {view_id} is not finite")
                    sums[view_id] = sums.get(view_id, 0.0) + err2d[k][v]
                    counts[view_id] = counts.get(view_id, 0) + 1

    if not per_frame:
        raise mio.InputParseError(f"{args.skeleton} and {args.truth} share no ok joint in any frame; nothing to evaluate")
    per_view = {v: sums[v] / counts[v] for v in sorted(sums)}
    mean = _write_report(out_base, per_frame, per_view, total_joints, frames_used)
    print(f"sequence mean 3D error: {mean:.3f} mm over {len(per_frame)} frames")
    return EXIT_OK


def _write_report(
    out_base: Path, per_frame: list[float], per_view: dict[int, float], joint_count: int, frames_used: list[int]
) -> float:
    """Write eval's .json and .csv reports; returns the sequence mean 3D error."""
    mean = sequence_mean(per_frame)
    fmt = "%.6f".__mod__
    body = "{\n"
    body += f'  "frame_count": {len(per_frame)},\n'
    body += f'  "joint_count": {joint_count},\n'
    body += f'  "sequence_mean_3d_mm": {fmt(mean)},\n'
    body += '  "per_frame_3d_mm": [' + ", ".join(map(fmt, per_frame)) + "],\n"
    body += '  "per_view_2d_px": {' + ", ".join(f'"{v}": {fmt(e)}' for v, e in sorted(per_view.items())) + "}\n"
    body += "}\n"
    csv_lines = ["frame,mean_abs_3d_err_mm"]
    csv_lines += [f"{f},{fmt(v)}" for f, v in zip(frames_used, per_frame)]
    with _output(out_base.with_suffix(".json")) as json_part, _output(out_base.with_suffix(".csv")) as csv_part:
        json_part.write_text(body, encoding="utf-8")
        csv_part.write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    return mean


@np.errstate(over="ignore")  # a reprojection that overflows to inf exits 2 below
def cmd_render_overlay(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args.out)
    cameras = mio.load_cameras(args.calib)
    views = stack_cameras(cameras, point_axes=1)
    column = {view_id: v for v, view_id in enumerate(views.ids)}
    by_id = {c.id: c for c in cameras}
    sizes = [by_id[view_id].resolution for view_id in views.ids]  # by column
    frames = _lockstep(
        ("keypoints", mio.read_keypoints(args.keypoints, column)),
        ("skeleton", mio.read_skeletons(args.skeleton)),
    )
    written: list[str] = []
    with _directory(out_dir):
        try:
            while chunk := list(islice(frames, REPROJECT_CHUNK_FRAMES)):
                pixels = project(np.stack([skel.positions for _, skel in chunk])[:, None], views)  # (N, V, 15, 2)
                if np.isinf(pixels).any():  # NaN marks a missing joint; inf, a position whose projection overflows
                    k, v = np.argwhere(np.isinf(pixels).any(axis=(2, 3)))[0]
                    raise mio.InputParseError(
                        f"{args.skeleton}: frame {chunk[k][1].frame}: reprojection in view {views.ids[v]} is not finite")
                detected, listed = _detections([obs for obs, _ in chunk], column, len(views.ids))
                svgs = render_overlay_svgs([sizes[v] for v in listed[1]], detected[listed], pixels[listed])
                for k, v, svg in zip(*listed, svgs):
                    written.append(os.path.join(out_dir, f"frame_{chunk[k][0].frame:04d}_view_{views.ids[v]}.svg"))
                    _write_bytes(written[-1], svg)
        except BaseException:
            for path in written:  # no partial set of overlays on a failed run
                Path(path).unlink(missing_ok=True)
            raise
    print(f"wrote {len(written)} overlays to {out_dir}")
    return EXIT_OK


# -- argument wiring --------------------------------------------------------


# Each subcommand's help, its handler, and its flags as add_argument arguments.
COMMANDS = {
    "synth": ("generate a synthetic scene with ground truth", cmd_synth, [
        ("--preset", dict(required=True, help="tpose-static, walk, wave, or squat")),
        ("--frames", dict(type=int, default=1)),
        ("--noise", dict(type=float, default=0.0, help="pixel noise standard deviation")),
        ("--dropout", dict(type=float, default=0.0, help="per-joint per-view miss probability")),
        ("--seed", dict(type=int, default=0, help="non-negative random seed")),
        ("--out", dict(required=True, help="output directory")),
    ]),
    "reconstruct": ("estimate per-frame 3D skeletons from keypoints", cmd_reconstruct, [
        ("--calib", dict(required=True, help="calibration JSON file")),
        ("--keypoints", dict(required=True, help="keypoints JSONL file")),
        ("--out", dict(required=True, help="output skeleton JSONL file")),
        ("--sigma", dict(type=int, default=RunConfig.sigma, help="minimum consenting views (default %(default)s)")),
        ("--delta", dict(help="terminal cube size WxHxL in mm")),
        ("--volume", dict(help="initial volume WxHxL[@X,Y,Z] in mm")),
        ("--min-conf", dict(type=float, default=RunConfig.min_confidence,
                            help="minimum keypoint confidence (default %(default)s)")),
        ("--timing", dict(action="store_true", help="print per-phase timing to stderr")),
    ]),
    "retarget": ("convert skeletons to per-bone transforms", cmd_retarget, [
        ("--skeleton", dict(required=True, help="skeleton JSONL file")),
        ("--out", dict(required=True, help="output transform JSONL file")),
    ]),
    "eval": ("compare estimated skeletons against truth", cmd_eval, [
        ("--skeleton", dict(required=True, help="estimated skeleton JSONL file")),
        ("--truth", dict(required=True, help="ground-truth skeleton JSONL file")),
        ("--calib", dict(help="calibration JSON file; with --keypoints, adds reprojection error")),
        ("--keypoints", dict(help="keypoints JSONL file; with --calib, adds reprojection error")),
        ("--out", dict(required=True, help="report path; .json and .csv are written next to it")),
    ]),
    "render-overlay": ("write per-frame per-view SVG overlays", cmd_render_overlay, [
        ("--calib", dict(required=True, help="calibration JSON file")),
        ("--keypoints", dict(required=True, help="keypoints JSONL file")),
        ("--skeleton", dict(required=True, help="estimated skeleton JSONL file")),
        ("--out", dict(required=True, help="output directory")),
    ]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The root parser with the sub-parser of command alone when it names a
    subcommand, and with every subcommand's otherwise, so that help, usage
    and the error for an unknown command list all of them."""
    parser = argparse.ArgumentParser(prog="mvmocap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, flags) in COMMANDS.items():
        if command not in COMMANDS or command == name:
            p = sub.add_parser(name, help=help_text)
            for flag, kwargs in flags:
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except mio.InputParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FrameMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except OSError as exc:  # an output that cannot be created or written; a failed write names no file
        print(f"error: {exc.filename2 or exc.filename or args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
