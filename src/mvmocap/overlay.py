"""SVG reprojection overlays: detected joints in red, reprojected in blue.

Each SVG is one %-template over the rows present in its view, applied once to
their coordinates, which get 3 decimals as format(x, ".3f") writes them.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .geometry import CameraParams
from .skeleton import BONES

_MARKER_RADIUS = 5
_BONE_WIDTH = 2

_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">\n'
    '<rect width="%d" height="%d" fill="white"/>\n'
)
_LINE = f'<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="steelblue" stroke-width="{_BONE_WIDTH}"/>\n'
_RED = f'<circle cx="%.3f" cy="%.3f" r="{_MARKER_RADIUS}" fill="red"/>\n'
_BLUE = f'<circle cx="%.3f" cy="%.3f" r="{_MARKER_RADIUS}" fill="blue"/>\n'
_ENDPOINTS = tuple((bone.parent_joint, bone.child_joint) for bone in BONES)


def render_overlay_svg(cam: CameraParams, detected: np.ndarray, reprojected: np.ndarray) -> str:
    """One view's overlay at the camera's native resolution.

    detected and reprojected hold one (u, v) row per joint index, NaN where
    the joint is absent: a row counts as present when its u is not NaN.
    Bones are drawn as segments between reprojected joints when both
    endpoints exist; detected joints render as red circles, reprojections
    as blue circles, each in ascending joint index.
    """
    w, h = cam.resolution
    rows = reprojected.tolist()
    bones = [rows[a] + rows[b] for a, b in _ENDPOINTS if not (math.isnan(rows[a][0]) or math.isnan(rows[b][0]))]
    red = [row for row in detected.tolist() if not math.isnan(row[0])]
    blue = [row for row in rows if not math.isnan(row[0])]
    template = _HEADER + _LINE * len(bones) + _RED * len(red) + _BLUE * len(blue) + "</svg>\n"
    return template % tuple(chain((w, h) * 3, *bones, *red, *blue))
