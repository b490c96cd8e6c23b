"""SVG reprojection overlays: detected joints in red, reprojected in blue."""

from __future__ import annotations

import math

import numpy as np

from .geometry import CameraParams
from .skeleton import SkeletonTopology

_MARKER_RADIUS = 5
_BONE_WIDTH = 2


def _f(x: float) -> str:
    return format(float(x), ".3f")


def _present(points: np.ndarray) -> dict[int, tuple[float, float]]:
    """Row index -> (x, y) of the rows of an (N, 2) array that are not NaN."""
    return {i: (x, y) for i, (x, y) in enumerate(points.tolist()) if not math.isnan(x)}


def render_overlay_svg(
    cam: CameraParams, detected: np.ndarray, reprojected: np.ndarray, topology: SkeletonTopology
) -> str:
    """One view's overlay at the camera's native resolution.

    detected and reprojected hold one (u, v) row per joint index, NaN where
    the joint is absent. Bones are drawn as segments between reprojected
    joints when both endpoints exist; detected joints render as red
    circles, reprojections as blue circles.
    """
    detected, reprojected = _present(detected), _present(reprojected)
    w, h = cam.resolution
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for bone in topology.bones:
        a = reprojected.get(bone.parent_joint)
        b = reprojected.get(bone.child_joint)
        if a is None or b is None:
            continue
        parts.append(
            f'<line x1="{_f(a[0])}" y1="{_f(a[1])}" x2="{_f(b[0])}" y2="{_f(b[1])}" '
            f'stroke="steelblue" stroke-width="{_BONE_WIDTH}"/>'
        )
    for color, points in (("red", detected), ("blue", reprojected)):
        for x, y in points.values():  # ascending joint index
            parts.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="{_MARKER_RADIUS}" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
