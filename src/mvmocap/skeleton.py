"""The body model as module data, and per-frame 3D skeletons.

The skeleton uses 14 detected joints (indices 0-13) plus a synthesized
pelvis root (index 14, "Torso") that anchors the bone tree. The body is
fixed: BONES lists its 12 bones parents first, T_POSE holds the rest pose
as a (15, 3) array, and FRAME_ROTATION maps each of four local frame
classes - left, right, up, down - to its rotation. The classes are named
for the direction the body part extends in the rest pose:

  left   arms and shoulder on the anatomical left, extending +x
  right  their mirrors, extending -x
  up     head and torso, extending +y
  down   all leg bones, extending -y

The global frame is right-handed with +y up and +x toward the character's
anatomical left when it faces the viewer. Each frame class carries a
rotation mapping local coordinates to global ones; the local x-axis always
points along the bone at rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STATUS_OK = "ok"
STATUS_NO_CONSENSUS = "no_consensus"

ROOT_JOINT = 14  # synthesized pelvis root; never produced by 2D detection
DETECTED_JOINTS = tuple(range(14))

JOINT_NAMES = {
    0: "Head",
    1: "Neck",
    2: "R_Shoulder",
    3: "R_Elbow",
    4: "R_Hand",
    5: "L_Shoulder",
    6: "L_Elbow",
    7: "L_Hand",
    8: "R_Hip",
    9: "R_Knee",
    10: "R_Foot",
    11: "L_Hip",
    12: "L_Knee",
    13: "L_Foot",
    ROOT_JOINT: "Torso",
}

FRAME_CLASSES = ("left", "right", "up", "down")


@dataclass(frozen=True)
class Bone:
    name: str
    parent_joint: int
    child_joint: int
    parent_bone: str | None
    frame_class: str


# Bone table: (name, parent joint, child joint, parent bone, frame class),
# parents first. The direction of a bone is child minus parent.
BONES = tuple(Bone(*row) for row in (
    ("torso", ROOT_JOINT, 1, None, "up"),
    ("head", 1, 0, "torso", "up"),
    ("r_shoulder", 1, 2, "torso", "right"),
    ("l_shoulder", 1, 5, "torso", "left"),
    ("r_upper_arm", 2, 3, "r_shoulder", "right"),
    ("l_upper_arm", 5, 6, "l_shoulder", "left"),
    ("r_lower_arm", 3, 4, "r_upper_arm", "right"),
    ("l_lower_arm", 6, 7, "l_upper_arm", "left"),
    ("r_upper_leg", 8, 9, "torso", "down"),
    ("l_upper_leg", 11, 12, "torso", "down"),
    ("r_lower_leg", 9, 10, "r_upper_leg", "down"),
    ("l_lower_leg", 12, 13, "l_upper_leg", "down"),
))


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """The turn of angle radians about axis, c*I + (1-c)*k*k^T + s*[k]_x for k = axis / |axis|."""
    k = axis / np.linalg.norm(axis)
    c = np.cos(angle)
    s = np.sin(angle)
    kx, ky, kz = k
    skew = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return c * np.eye(3) + (1.0 - c) * np.outer(k, k) + s * skew


# Local-to-global frame rotation per bone class; its x-axis is the direction
# at rest of every bone of that class. Each maps the local x-axis onto the
# class direction and keeps the frame right-handed:
#   left   identity
#   right  half turn about global y
#   up     +90 degrees about global z
#   down   -90 degrees about global z
FRAME_ROTATION = {
    "left": np.eye(3),
    "right": rotation_about_axis(np.array([0.0, 1.0, 0.0]), np.pi),
    "up": rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.pi / 2.0),
    "down": rotation_about_axis(np.array([0.0, 0.0, 1.0]), -np.pi / 2.0),
}

# Reference T-pose in millimeters for a 1700 mm figure, row i for joint i,
# root at the origin, facing +z. Arms horizontal, legs straight down.
T_POSE = np.array([
    [0.0, 700.0, 0.0],
    [0.0, 510.0, 0.0],
    [-185.0, 510.0, 0.0],
    [-465.0, 510.0, 0.0],
    [-725.0, 510.0, 0.0],
    [185.0, 510.0, 0.0],
    [465.0, 510.0, 0.0],
    [725.0, 510.0, 0.0],
    [-95.0, 0.0, 0.0],
    [-95.0, -430.0, 0.0],
    [-95.0, -880.0, 0.0],
    [95.0, 0.0, 0.0],
    [95.0, -430.0, 0.0],
    [95.0, -880.0, 0.0],
    [0.0, 0.0, 0.0],
])
T_POSE.setflags(write=False)  # shared module data: Skeleton3D(f, T_POSE) must not write through to it


class Skeleton3D:
    """One frame of joints: positions is (15, 3), row i for joint i, ok exactly where the row is finite.

    positions may also be given as a mapping from joint index to position
    for the ok joints. statuses, if given, must mark ok exactly those joints.
    """

    def __init__(self, frame: int, positions, statuses: dict[int, str] | None = None):
        if not isinstance(positions, np.ndarray):
            positions = np.array([positions.get(i, (np.nan,) * 3) for i in range(len(JOINT_NAMES))], dtype=float)
        if statuses is not None:
            ok = {i for i, s in statuses.items() if s == STATUS_OK}
            if set(np.flatnonzero(np.isfinite(positions).all(axis=1)).tolist()) != ok:
                raise ValueError("positions must be present exactly where status is ok")
        self.frame = frame
        self.positions = positions


def default_topology() -> tuple[Bone, ...]:
    """BONES. Nothing in the package calls this; perfbench/worker.py's set-up probe does."""
    return BONES


def default_template() -> dict[str, np.ndarray]:
    """FRAME_ROTATION. Nothing in the package calls this; perfbench/worker.py's set-up probe does."""
    return FRAME_ROTATION
