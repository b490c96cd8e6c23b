"""Evaluation measures: per-frame 3D error, sequence mean, per-view 2D error.

All 3D errors are mean absolute Euclidean distances in millimeters over
the joints reconstructed on both sides; joints missing on either side are
excluded rather than penalized. 2D errors are mean pixel distances between
detected joints and reprojections of the estimated 3D joints, reported per
view; each view's joints arrive as an array row per joint, NaN where the
joint is undetected, not reconstructed or behind the camera.

Both come from one array core, `mean_lengths`, which scores a whole stack of
row groups at once (eval's chunk of frames, or of frames x views) and adds
each group's lengths in row order, so a group gets the float it gets alone.
"""

from __future__ import annotations

import numpy as np

from .skeleton import Skeleton3D


class NoComparableJoints(ValueError):
    """No joint is present on both sides of a comparison."""


class EmptySequence(ValueError):
    """A sequence mean was requested over zero frames."""


def mean_lengths(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean Euclidean length of each (J, k) row group of the (..., J, k) differences d, and its count of rows.

    Only rows that are not NaN count. Their lengths are added one after another in row order (np.sum
    adds pairwise), so each mean is a per-row loop's float; a group with no such row has mean NaN, count 0."""
    length = np.sqrt(np.vecdot(d, d))
    present = ~np.isnan(length)
    count = present.sum(axis=-1)
    total = np.cumsum(np.where(present, length, 0.0), axis=-1)[..., -1]  # adding 0.0 leaves a sum as it is
    return np.divide(total, count, out=np.full(total.shape, np.nan), where=count > 0), count


def mean_abs_3d_err(estimated: Skeleton3D, truth: Skeleton3D) -> float:
    """Mean Euclidean distance in mm over joints present on both sides, summed in ascending joint order."""
    mean, count = mean_lengths(estimated.positions - truth.positions)
    if not count:
        raise NoComparableJoints("no joint is reconstructed in both skeletons")
    return float(mean)


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
        mean, count = mean_lengths(detected[view_id] - reprojected[view_id])  # ascending joint order
        if count:
            out[view_id] = float(mean)
    if not out:
        raise NoComparableJoints("no view has matched detected/reprojected joints")
    return out
