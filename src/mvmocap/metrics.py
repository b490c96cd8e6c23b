"""Evaluation measures: per-frame 3D error, sequence mean, per-view 2D error.

All 3D errors are mean absolute Euclidean distances in millimeters over
the joints reconstructed on both sides; joints missing on either side are
excluded rather than penalized. 2D errors are mean pixel distances between
detected joints and reprojections of the estimated 3D joints, reported per
view; each view's joints arrive as an array row per joint, NaN where the
joint is undetected, not reconstructed or behind the camera.
"""

from __future__ import annotations

import math

import numpy as np

from .skeleton import Skeleton3D


class NoComparableJoints(ValueError):
    """No joint is present on both sides of a comparison."""


class EmptySequence(ValueError):
    """A sequence mean was requested over zero frames."""


def _mean_length(d: np.ndarray) -> float | None:
    """Mean Euclidean length of the rows of d that are not NaN, summed in row order; None if every row is NaN."""
    total, count = 0.0, 0
    for length in np.sqrt(np.vecdot(d, d)).tolist():
        if not math.isnan(length):
            total += length
            count += 1
    return total / count if count else None


def mean_abs_3d_err(estimated: Skeleton3D, truth: Skeleton3D) -> float:
    """Mean Euclidean distance in mm over joints present on both sides, summed in ascending joint order."""
    mean = _mean_length(estimated.positions - truth.positions)
    if mean is None:
        raise NoComparableJoints("no joint is reconstructed in both skeletons")
    return mean


def sequence_mean(per_frame: list[float]) -> float:
    """Arithmetic mean of per-frame errors."""
    if len(per_frame) == 0:
        raise EmptySequence("cannot average an empty sequence")
    return float(np.mean(np.asarray(per_frame, dtype=float)))


def avg_2d_err(detected: dict[int, np.ndarray], reprojected: dict[int, np.ndarray]) -> dict[int, float]:
    """Per-view mean pixel distance between detections and reprojections.

    Both arguments map view id -> (J, 2) array whose row i is joint i's
    (u, v), NaN where the joint is absent. Only rows present on both sides
    for a view are compared; views with no matched rows are omitted.
    Raises NoComparableJoints when nothing matches in any view.
    """
    out: dict[int, float] = {}
    for view_id in sorted(detected.keys() & reprojected.keys()):
        mean = _mean_length(detected[view_id] - reprojected[view_id])  # ascending joint order
        if mean is not None:
            out[view_id] = mean
    if not out:
        raise NoComparableJoints("no view has matched detected/reprojected joints")
    return out
