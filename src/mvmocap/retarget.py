"""Bone rotation construction from 3D skeletons.

Everything happens in world coordinates. Walking the tree in topological
order, each bone's rest frame is first carried along by its parent's
rotation: q = g_parent @ rc, where rc is the bone's class frame, so q's
x-axis is where the bone would point had it not moved relative to its
parent. The minimal rotation that swings q's x-axis onto the observed
bone direction, applied to q, gives the bone's posed frame; its action on
the rest direction reproduces the observed direction exactly.

Two endpoints leave the roll about the bone axis unconstrained. The spin
corrector removes it by one Gram-Schmidt step: it keeps the frame's
x-axis and takes as y-axis the part of q's y-axis orthogonal to it, so y
lies in the plane spanned by the bone axis and the parent-carried y-axis.
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


class DegenerateParallel(ValueError):
    """Bone direction is (anti)parallel to the reference axis."""


@dataclass
class BoneTransformSet:
    """Per-bone 4x4 transforms for one frame; translation blocks are zero."""

    frame: int
    transforms: dict[str, np.ndarray]
    statuses: dict[str, str]

    def rotation(self, bone_name: str) -> np.ndarray:
        return self.transforms[bone_name][:3, :3]


def _frame_about(x_axis: np.ndarray, y_hint: np.ndarray) -> np.ndarray:
    """Right-handed basis with the given x-axis and y nearest to y_hint."""
    y = y_hint - np.dot(y_hint, x_axis) * x_axis
    n = np.linalg.norm(y)
    if n < PARALLEL_TOL:
        raise DegenerateParallel("secondary axis is parallel to the bone axis")
    y = y / n
    return np.column_stack([x_axis, y, np.cross(x_axis, y)])


def frame_from_bone(
    x_prime: np.ndarray,
    x_ref: np.ndarray,
    secondary: np.ndarray | None = None,
) -> np.ndarray:
    """Rotation carrying the unit reference axis x_ref onto x_prime.

    Both input frames share the perpendicular y' = x_prime x x_ref, so the
    result is the rotation about y' by the angle between the two axes. It
    satisfies R @ x_ref == x_prime and is orthonormal with det +1.

    When the axes are parallel the shared perpendicular vanishes; with a
    `secondary` hint the frames are completed from it (an aligned bone then
    maps to the identity), otherwise DegenerateParallel is raised.
    """
    x_prime = np.asarray(x_prime, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    cross = np.cross(x_prime, x_ref)
    n = np.linalg.norm(cross)
    if n < PARALLEL_TOL:
        if secondary is None:
            raise DegenerateParallel("bone direction is parallel to the reference axis")
        y_hint = np.asarray(secondary, dtype=float)
    else:
        y_hint = cross / n
    return _frame_about(x_prime, y_hint) @ _frame_about(x_ref, y_hint).T


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
    x_axis = rotation[:, 0]
    y_ref = parent_frame[:, 1]
    if np.linalg.norm(np.cross(x_axis, y_ref)) < PARALLEL_TOL:
        return rotation
    y = y_ref - np.dot(y_ref, x_axis) * x_axis
    y = y / np.linalg.norm(y)
    return np.column_stack([x_axis, y, np.cross(x_axis, y)])


def retarget_frame(
    skeleton: Skeleton3D,
    topology: SkeletonTopology,
    template: TPoseTemplate,
    previous: BoneTransformSet | None = None,
) -> BoneTransformSet:
    """Per-frame bone rotations as 4x4 transforms, parents before children.

    For each bone with both endpoints: carry the class frame by the
    parent's rotation (q = g_parent @ rc), swing q's x-axis onto the
    observed direction, spin-correct against q, and map back to the rest
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
            rot = spin_correct(frame_from_bone(direction, q[:, 0], secondary=q[:, 1]) @ q, q) @ rc.T
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
