"""Body topology, T-pose template, and per-frame 3D skeletons.

The skeleton uses 14 detected joints (indices 0-13) plus a synthesized
pelvis root (index 14, "Torso") that anchors the bone tree. Each bone is
assigned one of four local frame classes - left, right, up, down - named
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

from .mathutil import rotation_about_axis

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


# Bone table: (name, parent joint, child joint, parent bone, frame class).
# The direction of a bone is child minus parent.
_BONE_ROWS = (
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
)

# Reference T-pose joint positions in millimeters for a 1700 mm figure,
# root at the origin, facing +z. Arms horizontal, legs straight down.
T_POSE_STATURE_MM = 1700.0
T_POSE_POSITIONS = {
    0: np.array([0.0, 700.0, 0.0]),
    1: np.array([0.0, 510.0, 0.0]),
    2: np.array([-185.0, 510.0, 0.0]),
    3: np.array([-465.0, 510.0, 0.0]),
    4: np.array([-725.0, 510.0, 0.0]),
    5: np.array([185.0, 510.0, 0.0]),
    6: np.array([465.0, 510.0, 0.0]),
    7: np.array([725.0, 510.0, 0.0]),
    8: np.array([-95.0, 0.0, 0.0]),
    9: np.array([-95.0, -430.0, 0.0]),
    10: np.array([-95.0, -880.0, 0.0]),
    11: np.array([95.0, 0.0, 0.0]),
    12: np.array([95.0, -430.0, 0.0]),
    13: np.array([95.0, -880.0, 0.0]),
    ROOT_JOINT: np.array([0.0, 0.0, 0.0]),
}


@dataclass(frozen=True)
class SkeletonTopology:
    """Joint index/name table plus the bone tree rooted at the torso.

    Bones are listed parents first, so iterating `bones` visits every
    parent before its children.
    """

    joints: tuple[tuple[int, str], ...]
    bones: tuple[Bone, ...]

    def __post_init__(self):
        joint_ids = {idx for idx, _ in self.joints}
        roots = [b for b in self.bones if b.parent_bone is None]
        if len(roots) != 1:
            raise ValueError("bone tree must have exactly one root bone")
        by_name: dict[str, Bone] = {}
        for b in self.bones:
            if b.parent_joint not in joint_ids or b.child_joint not in joint_ids:
                raise ValueError(f"bone {b.name} references an unknown joint")
            # Parents come first: this also rules out cycles and unknown parents.
            if b.parent_bone is not None and b.parent_bone not in by_name:
                raise ValueError(f"bone {b.name} is listed before its parent {b.parent_bone}, or the parent is unknown")
            if b.frame_class not in FRAME_CLASSES:
                raise ValueError(f"bone {b.name} has unknown frame class {b.frame_class}")
            by_name[b.name] = b
        object.__setattr__(self, "_by_name", by_name)

    def bone(self, name: str) -> Bone:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(name) from None

    @property
    def detected_joint_indices(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.joints if idx != ROOT_JOINT)


@dataclass(frozen=True)
class TPoseTemplate:
    """Rest directions and local-to-global frame rotations per bone class.

    rest_direction maps bone name -> unit global direction at rest, which
    always equals frame_rotation[class] applied to the local x-axis.
    """

    rest_direction: dict[str, np.ndarray]
    frame_rotation: dict[str, np.ndarray]

    def __post_init__(self):
        for name, d in self.rest_direction.items():
            if abs(np.linalg.norm(d) - 1.0) > 1e-9:
                raise ValueError(f"rest direction of {name} is not unit length")
        for cls, m in self.frame_rotation.items():
            m = np.asarray(m, dtype=float)
            if not np.allclose(m @ m.T, np.eye(3), atol=1e-12) or abs(np.linalg.det(m) - 1.0) > 1e-12:
                raise ValueError(f"frame rotation for class {cls} is not a rotation")


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


def default_topology() -> SkeletonTopology:
    joints = tuple(sorted(JOINT_NAMES.items()))
    bones = tuple(Bone(*row) for row in _BONE_ROWS)
    return SkeletonTopology(joints=joints, bones=bones)


def default_template() -> TPoseTemplate:
    """Canonical T-pose template.

    Class rotations map the local x-axis onto the class direction while
    keeping the frames right-handed:

      left   identity
      right  half turn about global y
      up     +90 degrees about global z
      down   -90 degrees about global z
    """
    frame_rotation = {
        "left": np.eye(3),
        "right": rotation_about_axis(np.array([0.0, 1.0, 0.0]), np.pi),
        "up": rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.pi / 2.0),
        "down": rotation_about_axis(np.array([0.0, 0.0, 1.0]), -np.pi / 2.0),
    }
    x = np.array([1.0, 0.0, 0.0])
    rest = {Bone(*row).name: frame_rotation[Bone(*row).frame_class] @ x for row in _BONE_ROWS}
    return TPoseTemplate(rest_direction=rest, frame_rotation=frame_rotation)


def tpose_positions(stature_mm: float = T_POSE_STATURE_MM) -> dict[int, np.ndarray]:
    """Template joint positions scaled to the requested stature."""
    s = stature_mm / T_POSE_STATURE_MM
    return {i: s * p.copy() for i, p in T_POSE_POSITIONS.items()}
