"""Seeded inputs for each workload.

All scenes use the walk preset on the synthetic five-camera ring with
sigma=4. Inputs are generated in the benchmark process before any timing;
the commands under test only ever see the files written here.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from mvmocap import io as mio
from mvmocap.skeleton import DETECTED_JOINTS, ROOT_JOINT, STATUS_NO_CONSENSUS, STATUS_OK, Skeleton3D
from mvmocap.synth import generate_scene, render_observations

from harness import CHUNK_FRAMES, WARM_FRAMES, Workload, recon_frames

# Post-long skeleton stream: per-joint gap bursts and position jitter.
_GAP_START_P = 0.01
_GAP_MAX_LEN = 12
_JITTER_MM = 5.0


def _head(src: Path, dst: Path, lines: int) -> None:
    with open(src, encoding="utf-8") as fh:
        dst.write_text("".join(next(fh) for _ in range(lines)), encoding="utf-8")


def _noisy_stream(truth: list[Skeleton3D], rng: np.random.Generator) -> list[Skeleton3D]:
    """Truth with seeded per-joint gap bursts and jitter; root = hip midpoint."""
    gap_left = dict.fromkeys(DETECTED_JOINTS, 0)
    out = []
    for skel in truth:
        positions, statuses = {}, {}
        for idx in DETECTED_JOINTS:
            if gap_left[idx] == 0 and rng.random() < _GAP_START_P:
                gap_left[idx] = int(rng.integers(1, _GAP_MAX_LEN + 1))
            if gap_left[idx]:
                gap_left[idx] -= 1
                statuses[idx] = STATUS_NO_CONSENSUS
            else:
                positions[idx] = skel.positions[idx] + rng.normal(0.0, _JITTER_MM, size=3)
                statuses[idx] = STATUS_OK
        if statuses[8] == STATUS_OK and statuses[11] == STATUS_OK:
            positions[ROOT_JOINT] = 0.5 * (positions[8] + positions[11])
            statuses[ROOT_JOINT] = STATUS_OK
        else:
            statuses[ROOT_JOINT] = STATUS_NO_CONSENSUS
        out.append(Skeleton3D(frame=skel.frame, positions=positions, statuses=statuses))
    return out


def write_scene(out: Path, frames: int, noise_px: float, dropout: float, seed: int) -> list[Skeleton3D]:
    """calib.json, keypoints.jsonl and truth.jsonl, exactly as `mvmocap synth` writes them."""
    out.mkdir(parents=True, exist_ok=True)
    scene = generate_scene("walk", frames, noise_px=noise_px, dropout=dropout, seed=seed)
    mio.save_cameras(out / "calib.json", scene.cameras)
    mio.write_keypoints(out / "keypoints.jsonl", render_observations(scene))
    mio.write_skeletons(out / "truth.jsonl", scene.truth)
    return scene.truth


def _chunk(src: Path, out: Path, frames: int) -> None:
    """Splits the first `frames` lines of src into CHUNK_FRAMES-line chunk_NN.jsonl files."""
    with open(src, encoding="utf-8") as fh:
        lines = [next(fh) for _ in range(frames)]
    size = min(CHUNK_FRAMES, frames)
    for i in range(frames // size):
        (out / f"chunk_{i:02d}.jsonl").write_text("".join(lines[i * size:(i + 1) * size]), encoding="utf-8")


def prepare(w: Workload, work: Path, seed: int) -> None:
    """Write the workload's inputs, plus WARM_FRAMES-frame copies under warm/."""
    truth = write_scene(work, w.frames, w.noise_px, w.dropout, seed)
    inputs = ["keypoints.jsonl", "truth.jsonl"]
    if w.clip_frames:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
        mio.write_skeletons(work / "stream.jsonl", _noisy_stream(truth, rng))
        inputs.append("stream.jsonl")
    _chunk(work / "keypoints.jsonl", work, recon_frames(w, w.frames))
    warm = work / "warm"
    warm.mkdir()
    (warm / "calib.json").write_bytes((work / "calib.json").read_bytes())
    for name in inputs:
        _head(work / name, warm / name, WARM_FRAMES)
    _chunk(work / "keypoints.jsonl", warm, recon_frames(w, WARM_FRAMES))
