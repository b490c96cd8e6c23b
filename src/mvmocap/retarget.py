"""Bone rotation construction from 3D skeletons.

Everything happens in world coordinates. Walking the tree in topological
order, each bone's rest frame is first carried along by its parent's
rotation: q = g_parent @ rc, where rc is the bone's class frame, so q's
x-axis is where the bone would point had it not moved relative to its
parent. The posed frame is the right-handed basis [d, y, d x y] on the
observed bone direction d, with y the part of q's y-axis orthogonal to d
(one Gram-Schmidt step). Its action on the rest direction reproduces d
exactly, and the roll about the bone axis, which two endpoints leave
free, is the one that keeps y in the plane of d and the parent-carried
y-axis. This is the swing-twist split (Dobrowolski, arXiv 1506.05481)
with the twist taken from q. When d is parallel to q's y-axis that plane
does not exist, and y is taken as the unit q_z x d instead, which is the
frame the minimal swing of q's x-axis onto d would give.
Right-multiplying by rc.T turns the frame back into a rotation of the
rest pose, emitted as a 4x4 transform whose translation is always zero
because rigs carry their own bone offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .skeleton import (
    STATUS_OK,
    MissingJoint,
    Skeleton3D,
    SkeletonTopology,
    TPoseTemplate,
    ZeroLengthBone,
    bone_vector,
)

STATUS_FELL_BACK = "fell_back"

# Below this cross-product norm two axes are treated as parallel.
PARALLEL_TOL = 1e-6


@dataclass
class BoneTransformSet:
    """Per-bone 4x4 transforms for one frame; translation blocks are zero."""

    frame: int
    transforms: dict[str, np.ndarray]
    statuses: dict[str, str]

    def rotation(self, bone_name: str) -> np.ndarray:
        return self.transforms[bone_name][:3, :3]


def _posed_frame(direction: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Right-handed frame [d, y, d x y] on the unit direction d, y nearest to q's y-axis.

    y is q[:, 1] made orthogonal to d. When the two are parallel it is the
    unit q[:, 2] x d, the y-axis that the minimal swing of q's x-axis onto d
    would give.
    """
    y = q[:, 1] - np.dot(q[:, 1], direction) * direction
    n = np.linalg.norm(y)  # equals |d x q[:, 1]|
    if n < PARALLEL_TOL:
        y = np.cross(q[:, 2], direction)
        n = np.linalg.norm(y)
    y = y / n
    return np.column_stack([direction, y, np.cross(direction, y)])


def spin_correct(rotation: np.ndarray, parent_frame: np.ndarray) -> np.ndarray:
    """Remove free roll about the bone axis.

    Keeps the bone x-axis and replaces the y-axis by the parent frame's
    y-axis made orthogonal to it (one Gram-Schmidt step), so the corrected
    y-axis lies in the plane of the bone axis and the parent's y-axis and
    points to the same side as the parent's. The bone axis is preserved
    exactly.

    Returns the input unchanged when the bone axis is parallel to the
    parent's y-axis (no reference plane exists).
    """
    x_axis, y_ref = rotation[:, 0], parent_frame[:, 1]
    if np.linalg.norm(y_ref - np.dot(y_ref, x_axis) * x_axis) < PARALLEL_TOL:
        return rotation
    return _posed_frame(x_axis, parent_frame)


def retarget_frame(
    skeleton: Skeleton3D,
    topology: SkeletonTopology,
    template: TPoseTemplate,
    previous: BoneTransformSet | None = None,
) -> BoneTransformSet:
    """Per-frame bone rotations as 4x4 transforms, parents before children.

    For each bone with both endpoints: carry the class frame by the
    parent's rotation (q = g_parent @ rc), build the posed frame on the
    observed direction from q (see _posed_frame), and map back to the rest
    pose with @ rc.T. Bones lacking endpoint data hold the previous
    frame's rotation when one is supplied, otherwise the identity, and
    report status "fell_back". Translations are zero and the bottom row is
    exactly (0, 0, 0, 1).
    """
    transforms: dict[str, np.ndarray] = {}
    statuses: dict[str, str] = {}
    global_rot: dict[str, np.ndarray] = {}
    for bone in topology.bones:
        try:
            direction = bone_vector(skeleton, bone.name, topology)
        except (MissingJoint, ZeroLengthBone):
            if previous is not None and bone.name in previous.transforms:
                rot = previous.rotation(bone.name).copy()
            else:
                rot = np.eye(3)
            statuses[bone.name] = STATUS_FELL_BACK
        else:
            rc = template.frame_rotation[bone.frame_class]
            q = global_rot[bone.parent_bone] @ rc if bone.parent_bone else rc
            rot = _posed_frame(direction, q) @ rc.T
            statuses[bone.name] = STATUS_OK
        global_rot[bone.name] = rot
        T = np.eye(4)
        T[:3, :3] = rot
        transforms[bone.name] = T
    return BoneTransformSet(frame=skeleton.frame, transforms=transforms, statuses=statuses)


def retarget_sequence(skeletons, topology: SkeletonTopology, template: TPoseTemplate):
    """Retarget an in-order skeleton stream, holding rotations across gaps."""
    previous: BoneTransformSet | None = None
    for skel in skeletons:
        current = retarget_frame(skel, topology, template, previous=previous)
        previous = current
        yield current
