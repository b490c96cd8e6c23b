"""Correctness checks on the files the commands wrote.

The readers here parse the JSON lines directly rather than through
`mvmocap.io`, so a parsing defect in the program cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from harness import require

ROOT_JOINT = 14
OK = "ok"
# 6-decimal file precision: each entry is off by at most 5e-7, so R R^T and
# det(R) are off by a few 1e-6 at most.
ROTATION_TOL = 1e-5
REPORT_TOL = 1e-6


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _ok_positions(rec: dict) -> dict[int, np.ndarray]:
    return {j["idx"]: np.asarray(j["p"], dtype=float) for j in rec["joints"] if j["status"] == OK}


def consensus(skeletons: list[dict]) -> tuple[int, int]:
    """(ok, attempted) over detected joints; the synthesized root is excluded."""
    detected = [j for rec in skeletons for j in rec["joints"] if j["idx"] != ROOT_JOINT]
    return sum(j["status"] == OK for j in detected), len(detected)


def sequence_mean_3d(estimated: list[dict], truth: list[dict]) -> float:
    """Mean over frames of the mean joint distance, as `eval` defines it."""
    per_frame = []
    for est, tru in zip(estimated, truth, strict=True):
        a, b = _ok_positions(est), _ok_positions(tru)
        shared = sorted(set(a) & set(b))
        if shared:
            per_frame.append(np.mean([np.linalg.norm(a[i] - b[i]) for i in shared]))
    require(bool(per_frame), "no frame has joints on both sides")
    return float(np.mean(per_frame))


def check_transforms(anim: list[dict]) -> tuple[int, int]:
    """Checks every 4x4 transform; returns (bones ok, bones total)."""
    mats = np.asarray([b["T"] for rec in anim for b in rec["bones"]], dtype=float)
    require(mats.ndim == 3 and mats.shape[1:] == (4, 4), "transforms are not 4x4")
    require(bool(np.all(mats[:, :3, 3] == 0.0)), "a transform has a non-zero translation")
    require(bool(np.all(mats[:, 3, :] == np.array([0.0, 0.0, 0.0, 1.0]))), "a bottom row is not 0 0 0 1")
    rot = mats[:, :3, :3]
    ortho = np.abs(rot @ rot.transpose(0, 2, 1) - np.eye(3)).max()
    require(ortho <= ROTATION_TOL, f"rotation off orthonormal by {ortho:.2e}")
    det = np.abs(np.linalg.det(rot) - 1.0).max()
    require(det <= ROTATION_TOL, f"rotation determinant off +1 by {det:.2e}")
    statuses = [b["status"] for rec in anim for b in rec["bones"]]
    return sum(s == OK for s in statuses), len(statuses)


def check_frames(records: list[dict], frames: int, what: str) -> None:
    got = [rec["frame"] for rec in records]
    require(got == list(range(frames)), f"{what}: expected frames 0..{frames - 1}, got {len(got)} records")


def check_report(report: dict, estimated: list[dict], truth: list[dict], frames: int) -> None:
    require(report["frame_count"] == frames, f"eval scored {report['frame_count']} of {frames} frames")
    ours = sequence_mean_3d(estimated, truth)
    theirs = report["sequence_mean_3d_mm"]
    require(math.isclose(ours, theirs, rel_tol=0.0, abs_tol=REPORT_TOL),
            f"eval sequence mean {theirs} != recomputed {ours:.7f}")
