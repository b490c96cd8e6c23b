"""Containment helpers shared by the geometry and estimator tests.

`hull_contains` is the independent oracle: scipy's convex hull of the
projected cube vertices. `slab_votes` runs the estimator's own ray-box
predicate on one cube.
"""

import numpy as np
from scipy.spatial import ConvexHull

from mvmocap.geometry import NonPositiveDepth, project_points
from mvmocap.voxel import _camera_arrays, _rays, _views_containing

# Boundary tolerance of the oracle, pixels of perpendicular distance.
HULL_TOL_PX = 1e-9


def hull_contains(cube, cam, pixel) -> bool:
    """Pixel inside the hull of the cube's projected vertices (boundary
    inclusive); False when any vertex is not in front of the camera."""
    try:
        verts = project_points(cube.vertices(), cam)
    except NonPositiveDepth:
        return False
    eq = ConvexHull(verts).equations  # unit outward normal n, offset b: n.x + b <= 0 inside
    return bool(np.all(eq[:, :2] @ np.asarray(pixel, dtype=float) + eq[:, 2] <= HULL_TOL_PX))


def slab_votes(center, edges, cameras, pixels) -> np.ndarray:
    """Per-view votes of the estimator's predicate for one box, (V,) bool."""
    K, R, t = _camera_arrays(list(cameras))
    origins, directions = _rays(K, R, t, np.atleast_2d(np.asarray(pixels, dtype=float)))
    center = np.asarray(center, dtype=float)[None, :]
    return _views_containing(center, np.asarray(edges, dtype=float), R, t, origins, directions)[:, 0]
