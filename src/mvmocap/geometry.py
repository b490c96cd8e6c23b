"""Pinhole cameras and perspective projection.

Coordinate conventions used throughout the package:

  World frame (right-handed): +y up, millimeters.
  Camera frame (right-handed, standard computer vision): x right, y down,
  z forward along the optical axis. A camera sees points with z > 0 in its
  own frame; `project` gives the others NaN pixels, as for a missing joint.
  Image frame: u right, v down, pixels, origin at the top-left corner.
  Projected points may lie outside the image rectangle.

Calibrations are assumed pre-undistorted; no lens-distortion model is
applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np


_ROTATION_TOL = 1e-9


@dataclass(frozen=True)
class CameraParams:
    """One calibrated view: intrinsics, world-to-camera pose, resolution.

    intrinsic: 3x3 pixel-unit matrix, upper triangular, with positive
        focal entries and last row exactly (0, 0, 1), so it is invertible.
    rotation / translation: world-to-camera rigid transform; translation
        is in millimeters.
    resolution: (width_px, height_px), both positive.
    """

    id: int
    intrinsic: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    resolution: tuple[int, int]

    def __post_init__(self):
        K = np.array(self.intrinsic, dtype=float)
        R = np.array(self.rotation, dtype=float)
        t = np.array(self.translation, dtype=float).reshape(3)
        if K.shape != (3, 3) or R.shape != (3, 3):
            raise ValueError("intrinsic and rotation must be 3x3 matrices")
        if K[1, 0] != 0.0 or K[2].tolist() != [0.0, 0.0, 1.0]:
            raise ValueError(f"intrinsic must be upper triangular with last row [0, 0, 1], got {K.tolist()}")
        if K[0, 0] <= 0 or K[1, 1] <= 0:
            raise ValueError("intrinsic focal entries must be positive")
        if (np.abs(R @ R.T - np.eye(3)) > _ROTATION_TOL).any():
            raise ValueError("rotation must be orthonormal")
        if abs(np.linalg.det(R) - 1.0) > _ROTATION_TOL:
            raise ValueError("rotation must have determinant +1")
        w, h = self.resolution
        if w <= 0 or h <= 0:
            raise ValueError("resolution components must be positive")
        object.__setattr__(self, "intrinsic", K)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "resolution", (int(w), int(h)))


class CameraStack(NamedTuple):
    """Cameras in ascending id order: their ids, and K, R, t stacked on a leading view axis."""

    ids: list[int]
    intrinsic: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray


def stack_cameras(cameras: Iterable[CameraParams], point_axes: int = 0) -> CameraStack:
    """The cameras sorted by id, with point_axes unit axes after the view axis.

    With point_axes=0 the stacks are (V, 3, 3), (V, 3, 3) and (V, 3). With
    point_axes=1, `project(points[:, None], stack)` projects (N, J, 3) points
    into every view in one call, giving (N, V, J, 2) whose slice [:, v] is
    bit for bit `project(points, camera v)`.
    """
    ordered = sorted(cameras, key=lambda c: c.id)
    unit = (1,) * point_axes
    return CameraStack(
        [c.id for c in ordered],
        np.stack([c.intrinsic for c in ordered]).reshape(-1, *unit, 3, 3),
        np.stack([c.rotation for c in ordered]).reshape(-1, *unit, 3, 3),
        np.stack([c.translation for c in ordered]).reshape(-1, *unit, 3),
    )


def project(points: np.ndarray, cam: CameraParams | CameraStack) -> np.ndarray:
    """Perspective projection of (..., 3) world points to (..., 2) pixels.

    A point with camera-frame depth z <= 0 gets a NaN row: it lies on or
    behind the camera plane and has no image. The leading axes of a
    CameraStack's arrays broadcast against those of points.
    """
    p_cam = np.matmul(cam.rotation, np.asarray(points, dtype=float)[..., None])[..., 0] + cam.translation
    img = np.matmul(cam.intrinsic, p_cam[..., None])[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        pixels = img[..., :2] / img[..., 2:]
    pixels[p_cam[..., 2] <= 0.0] = np.nan
    return pixels
