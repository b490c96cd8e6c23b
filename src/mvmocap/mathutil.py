"""Small 3D math helpers shared across the package."""

from __future__ import annotations

import numpy as np


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize a vector to unit length."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix for a turn of `angle` radians about a unit `axis`.

    Closed-form axis/angle construction: c*I + (1-c)*k*k^T + s*[k]_x.
    """
    k = unit(axis)
    c = np.cos(angle)
    s = np.sin(angle)
    kx, ky, kz = k
    skew = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return c * np.eye(3) + (1.0 - c) * np.outer(k, k) + s * skew

