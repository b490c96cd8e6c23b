"""Bone rotation construction from 3D skeletons.

Each bone's observed direction is pulled back through its parent's
accumulated rotation, expressed in the bone's local rest frame, and turned
into the rotation that carries the local x-axis onto it. Walking the tree
in topological order and composing parent-then-local yields accumulated
rotations whose action on the rest directions reproduces every observed
bone direction exactly.

Two endpoints leave the roll about the bone axis unconstrained. The spin
corrector removes it by rolling the frame about its x-axis until the
frame's y-axis lies in the plane spanned by the bone axis and the parent
frame's y-axis. Finally each rotation is conjugated by its class frame so
the emitted 4x4 transform acts in global coordinates; translations are
always zero because rigs carry their own bone offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mathutil import rotation_about_axis
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

_X = np.array([1.0, 0.0, 0.0])
_Y = np.array([0.0, 1.0, 0.0])


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

    Measures the dihedral angle between the plane (bone x-axis, parent
    frame y-axis) and the plane (bone x-axis, frame y-axis), rolls the
    frame about its x-axis by plus or minus that angle, and keeps the
    candidate whose y-axis lands in the reference plane. The bone axis is
    the rotation axis, so it is preserved exactly.

    Returns the input unchanged when the angle is zero or when the bone
    axis is parallel to the parent's y-axis (no reference plane exists).
    """
    x_axis = rotation[:, 0]
    y_ref = parent_frame[:, 1]
    n_ref = np.cross(x_axis, y_ref)
    norm_ref = np.linalg.norm(n_ref)
    if norm_ref < PARALLEL_TOL:
        return rotation
    n_ref = n_ref / norm_ref
    n_cur = np.cross(x_axis, rotation[:, 1])  # unit: y is orthogonal to x
    # Dihedral angle via atan2: well conditioned near zero.
    theta = float(np.arctan2(np.linalg.norm(np.cross(n_cur, n_ref)), np.dot(n_cur, n_ref)))
    if theta < 1e-12:
        return rotation

    best = None
    best_resid = None
    for sign in (1.0, -1.0):
        y_cand = rotation_about_axis(x_axis, sign * theta) @ rotation[:, 1]
        cand = np.column_stack([x_axis, y_cand, np.cross(x_axis, y_cand)])
        resid = abs(np.dot(y_cand, n_ref))
        if best is None or resid < best_resid - 1e-9:
            best, best_resid = cand, resid
        elif abs(resid - best_resid) <= 1e-9 and np.dot(cand[:, 1], y_ref) > np.dot(best[:, 1], y_ref):
            best = cand
    return best


def to_global(local: np.ndarray, frame_class: str, template: TPoseTemplate) -> np.ndarray:
    """Conjugate a local-frame rotation into global coordinates."""
    rc = template.frame_rotation[frame_class]
    return rc @ local @ rc.T


def retarget_frame(
    skeleton: Skeleton3D,
    topology: SkeletonTopology,
    template: TPoseTemplate,
    previous: BoneTransformSet | None = None,
) -> BoneTransformSet:
    """Full per-frame composition ending in 4x4 transforms.

    Bone directions -> local rotation -> chained accumulation -> spin
    correction -> global conjugation. Bones lacking endpoint data hold the
    previous frame's rotation when one is supplied, otherwise the
    identity, and report status "fell_back". Translations are zero and the
    bottom row is exactly (0, 0, 0, 1).
    """
    transforms: dict[str, np.ndarray] = {}
    statuses: dict[str, str] = {}
    global_rot: dict[str, np.ndarray] = {}
    for bone in topology.bones_topological():
        g_parent = global_rot.get(bone.parent_bone, np.eye(3)) if bone.parent_bone else np.eye(3)
        rc = template.frame_rotation[bone.frame_class]
        try:
            direction = bone_vector(skeleton, bone.name, topology)
        except (MissingJoint, ZeroLengthBone):
            if previous is not None and bone.name in previous.transforms:
                rot = previous.rotation(bone.name).copy()
            else:
                rot = np.eye(3)
            statuses[bone.name] = STATUS_FELL_BACK
        else:
            pulled_back = g_parent.T @ direction
            x_local = rc.T @ pulled_back
            local = frame_from_bone(x_local, _X, secondary=_Y)
            acc = rc.T @ g_parent @ rc @ local
            parent_local = rc.T @ g_parent @ rc
            acc = spin_correct(acc, parent_local)
            rot = rc @ acc @ rc.T
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
