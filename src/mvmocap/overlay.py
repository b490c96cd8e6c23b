"""SVG reprojection overlays: detected joints in red, reprojected in blue.

`render_overlay_svgs` renders many views in one array pass. It gathers every
view's bone endpoints and markers into an (n, 114) array in template order,
selects the values that are drawn with one boolean mask and converts them with
one `.tolist()`. Each SVG is then one bytes %-template filled from its slice of
that list, coordinates with 3 decimals as "%.3f" writes them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import CameraParams
from .skeleton import BONES, DETECTED_JOINTS, JOINT_NAMES

_MARKER_RADIUS = 5
_BONE_WIDTH = 2

_HEADER = (
    b'<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">\n'
    b'<rect width="%d" height="%d" fill="white"/>\n'
)
_LINE = b'<line x1="%%.3f" y1="%%.3f" x2="%%.3f" y2="%%.3f" stroke="steelblue" stroke-width="%d"/>\n' % _BONE_WIDTH
_RED = b'<circle cx="%%.3f" cy="%%.3f" r="%d" fill="red"/>\n' % _MARKER_RADIUS
_BLUE = b'<circle cx="%%.3f" cy="%%.3f" r="%d" fill="blue"/>\n' % _MARKER_RADIUS
_END = b"</svg>\n"

# A view's points side by side: its 15 reprojected joints, then its 14 detected ones.
# The elements an SVG can draw, in template order: 14 bones, 14 red and 15 blue markers,
# each as the two points that must both be present, a bone's endpoints or a marker's point twice.
_ENDS = np.array(
    [(bone.parent_joint, bone.child_joint) for bone in BONES]
    + [(len(JOINT_NAMES) + j, len(JOINT_NAMES) + j) for j in range(len(DETECTED_JOINTS))]
    + [(j, j) for j in range(len(JOINT_NAMES))]
)
_SECTION_STARTS = [0, len(BONES), len(BONES) + len(DETECTED_JOINTS)]
# The 114 template values: the element each belongs to, and the point and coordinate it
# reads. A bone's values are x1 y1 x2 y2, so value k reads end k // 2 % 2, coordinate k % 2.
_ELEMENT = np.repeat(np.arange(len(_ENDS)), [4] * len(BONES) + [2] * (len(_ENDS) - len(BONES)))
_POINT = _ENDS[_ELEMENT, np.arange(_ELEMENT.size) // 2 % 2]
_COORD = np.arange(_ELEMENT.size) % 2


def render_overlay_svgs(sizes: Sequence[tuple[int, int]], detected: np.ndarray, reprojected: np.ndarray) -> list[bytes]:
    """The overlays of n views, view i at the (width, height) sizes[i].

    detected (n, 14, 2) and reprojected (n, 15, 2) hold one (u, v) row per
    joint index, NaN where the joint is absent: a row counts as present
    when its u is not NaN. Bones are drawn as segments between reprojected
    joints when both endpoints exist, in BONES order; detected joints
    render as red circles, reprojections as blue circles, each in
    ascending joint index.
    """
    points = np.concatenate((reprojected, detected), axis=1)  # (n, 29, 2)
    present = ~np.isnan(points[:, :, 0])
    drawn = present[:, _ENDS[:, 0]] & present[:, _ENDS[:, 1]]  # (n, 43)
    counts = np.add.reduceat(drawn, _SECTION_STARTS, axis=1, dtype=np.intp).tolist()  # bones, red, blue
    flat = points[:, _POINT, _COORD][drawn[:, _ELEMENT]].tolist()
    svgs = []
    at = 0
    for (w, h), (bones, red, blue) in zip(sizes, counts):
        end = at + 4 * bones + 2 * (red + blue)
        svgs.append(_HEADER % (w, h, w, h, w, h) + (_LINE * bones + _RED * red + _BLUE * blue + _END) % tuple(flat[at:end]))
        at = end
    return svgs


def render_overlay_svg(cam: CameraParams, detected: np.ndarray, reprojected: np.ndarray) -> str:
    """One view's overlay at the camera's native resolution, as render_overlay_svgs draws it."""
    return render_overlay_svgs([cam.resolution], detected[None], reprojected[None])[0].decode()
