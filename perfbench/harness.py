"""Workload definitions, the CLI calls of one pipeline pass, and worker processes.

Standard library only: `run.py` starts the workers before it imports numpy
or mvmocap (see there).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
BLAS_THREADS = 1
SIGMA = 4
VIEWS = 5  # the synthetic camera ring
WARM_FRAMES = 2
CHUNK_FRAMES = 4
TIMED_CHUNKS = 5
# Timings are reported at reference speed: a call's CPU time times
# REF_CPU_S over the mean CPU time of the reference kernel runs just before
# and just after it (worker.Reference; see README.md). REF_CPU_S is a round
# figure near that kernel's median CPU time on the machine the benchmark was
# built on.
REF_CPU_S = 0.010


class CheckFailed(Exception):
    """A command exited non-zero or an output check failed."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    frames: int          # frames of the stream the pipeline commands process
    noise_px: float
    dropout: float
    delta_mm: int
    clip_frames: int = 0  # >0: reconstruct only this many frames, off the pipeline
    # frames and clip_frames are multiples of CHUNK_FRAMES


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "walk-clean",
            "noiseless walk at delta 10: every joint descends ~10 levels, voxel is ~85% of the time, retarget takes its full path",
            frames=20, noise_px=0.0, dropout=0.0, delta_mm=10,
        ),
        Workload(
            "walk-noisy",
            "ROADMAP baseline scene (1 px, 5% dropout, delta 20): joints short-circuit or lose consensus, retarget holds across gaps",
            frames=100, noise_px=1.0, dropout=0.05, delta_mm=20,
        ),
        Workload(
            "post-long",
            "long skeleton stream through retarget, eval and render-overlay only: voxel does no pipeline work, memory grows with length",
            frames=200, noise_px=1.0, dropout=0.05, delta_mm=20, clip_frames=64,
        ),
    )
}


@dataclass(frozen=True)
class Command:
    key: str              # unique per call site, e.g. "reconstruct.03"
    name: str             # CLI subcommand
    argv: list[str]
    frames: int
    in_pipeline: bool
    timed: bool = True


def recon_frames(w: Workload, frames: int) -> int:
    return min(w.clip_frames or w.frames, frames)


def commands(w: Workload, work: Path, frames: int) -> list[Command]:
    """The CLI calls that make one pipeline pass over the inputs in `work`.

    `reconstruct` runs on CHUNK_FRAMES-frame chunks of the keypoints, so that
    each timed call is short, and only TIMED_CHUNKS of them, spread evenly
    over the scene, are called again and timed (see README.md);
    `join_chunks` puts their outputs together into the `skel.jsonl` the later
    commands read. On post-long the later commands read the generated
    `stream.jsonl` instead, and reconstruct only processes a clip that
    nothing downstream reads.
    """
    d = lambda name: str(work / name)
    delta = f"{w.delta_mm}x{w.delta_mm}x{w.delta_mm}"
    n = recon_frames(w, frames)
    chunk = min(CHUNK_FRAMES, n)
    chunks = n // chunk
    timed = {round(k * chunks / TIMED_CHUNKS) for k in range(min(TIMED_CHUNKS, chunks))}
    cmds = [
        Command(f"reconstruct.{i:02d}", "reconstruct",
                ["reconstruct", "--calib", d("calib.json"), "--keypoints", d(f"chunk_{i:02d}.jsonl"),
                 "--sigma", str(SIGMA), "--delta", delta, "--out", d(f"skel_{i:02d}.jsonl")],
                chunk, not w.clip_frames, i in timed)
        for i in range(chunks)
    ]
    skel = d("stream.jsonl" if w.clip_frames else "skel.jsonl")
    common = ["--calib", d("calib.json"), "--keypoints", d("keypoints.jsonl")]
    return cmds + [
        Command("retarget", "retarget", ["retarget", "--skeleton", skel, "--out", d("anim.jsonl")], frames, True),
        Command("eval", "eval", ["eval", "--skeleton", skel, "--truth", d("truth.jsonl"), *common,
                                 "--out", d("report")], frames, True),
        Command("render-overlay", "render-overlay",
                ["render-overlay", *common, "--skeleton", skel, "--out", d("overlay")], frames, True),
    ]


def recon_outputs(cmds: list[Command]) -> list[Path]:
    return [Path(c.argv[-1]) for c in cmds if c.name == "reconstruct"]


def join_chunks(w: Workload, cmds: list[Command], work: Path) -> None:
    """Concatenates the reconstruct chunk outputs into the pipeline's skel.jsonl.

    Frames are reconstructed independently, so this is byte for byte what a
    single reconstruct call over all the keypoints writes.
    """
    if not w.clip_frames:
        (work / "skel.jsonl").write_bytes(b"".join(p.read_bytes() for p in recon_outputs(cmds)))


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Worker:
    """One long-lived child process that runs a single CLI subcommand."""

    def __init__(self, root: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), "serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=root,
        )
        self.peak_kb = 0

    def call(self, argv: list[str], trace: bool = False) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        require(bool(line), f"worker for {argv[0]} died")
        reply = json.loads(line)
        require(reply["code"] == 0, f"`mvmocap {' '.join(argv)}` exited {reply['code']}:\n{reply['output']}")
        self.peak_kb = max(self.peak_kb, reply["maxrss_kb"])
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
