"""Bone rotation construction from 3D skeletons.

Everything happens in world coordinates, on the one body of
skeleton.BONES and skeleton.FRAME_ROTATION. Walking BONES parents first,
each bone's rest frame is first carried along by its parent's rotation:
q = g_parent @ rc, where rc is the bone's class frame, so q's
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

Frames are linked only where a bone lacks data: it then holds its last
good rotation, the identity before the first. That hold is a forward fill
along the frames, so a stream is retargeted one chunk at a time, as the
skeleton reader yields it: (N, 15, 3) joints, NaN where a joint is not ok,
and the chain runs once per tree depth over (N, b, 3, 3) stacks of that
depth's b bones. `retarget` reads chunks of CHUNK_FRAMES frames. Each bone's
last rotation is carried into the next chunk, so at most one chunk is held
in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .skeleton import BONES, FRAME_ROTATION, STATUS_OK, Skeleton3D

STATUS_FELL_BACK = "fell_back"

# Below this cross-product norm two axes are treated as parallel.
PARALLEL_TOL = 1e-6

# Below this length (mm) a bone's endpoints coincide and give no direction.
MIN_BONE_LENGTH = 1e-6

# Frames per chunk that `retarget` reads and retarget_chunks retargets together.
CHUNK_FRAMES = 256

_STATUS = (STATUS_FELL_BACK, STATUS_OK)  # indexed by the bone's ok flag

_NAMES = tuple(bone.name for bone in BONES)
_PARENT = tuple(_NAMES.index(bone.parent_bone) if bone.parent_bone else None for bone in BONES)

# Per tree depth, root first: its bones, their parent bones (None at the root), child and parent joints and class frames.
_LEVELS = []
_level = [b for b, p in enumerate(_PARENT) if p is None]
while _level:
    _LEVELS.append((np.array(_level), None if _PARENT[_level[0]] is None else np.array([_PARENT[b] for b in _level]),
                    np.array([BONES[b].child_joint for b in _level]), np.array([BONES[b].parent_joint for b in _level]),
                    np.stack([FRAME_ROTATION[BONES[b].frame_class] for b in _level])))
    _level = [b for b, p in enumerate(_PARENT) if p in _level]


@dataclass
class BoneTransformSet:
    """Per-bone 4x4 transforms for one frame; translation blocks are zero."""

    frame: int
    transforms: dict[str, np.ndarray]
    statuses: dict[str, str]

    def rotation(self, bone_name: str) -> np.ndarray:
        return self.transforms[bone_name][:3, :3]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross over the last axis, the same products without its per-call overhead."""
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def _posed_frame(direction: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Right-handed frames [d, y, d x y] on unit directions d (..., 3), y nearest to q's y-axis.

    q is (..., 3, 3) and broadcasts against d. y is q[..., :, 1] made
    orthogonal to d. Where the two are parallel it is the unit
    q[..., :, 2] x d, the y-axis that the minimal swing of q's x-axis onto d
    would give.
    """
    q_y = q[..., :, 1]
    y = q_y - (q_y * direction).sum(axis=-1, keepdims=True) * direction
    n = np.linalg.norm(y, axis=-1, keepdims=True)  # equals |d x q_y|
    parallel = n < PARALLEL_TOL
    if parallel.any():
        y = np.where(parallel, _cross(q[..., :, 2], direction), y)
        n = np.linalg.norm(y, axis=-1, keepdims=True)
    y = y / n
    return np.stack([direction, y, _cross(direction, y)], axis=-1)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # rows that are not ok are computed, then dropped
def _rotations(points: np.ndarray, held: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bone rotations (N, B, 3, 3) and ok flags (N, B) of N frames' (N, 15, 3) joints, NaN where not ok.

    The bones of one tree depth run together, depths root first, so a
    parent's rotations, held ones included, are complete before its
    children use them. A bone is ok in a frame where both endpoints are
    finite and its length is finite and at least MIN_BONE_LENGTH; elsewhere
    it holds its rotation from the last ok frame, or held[b] before the first.
    """
    rot = np.empty((points.shape[0], len(BONES), 3, 3))
    ok = np.empty((points.shape[0], len(BONES)), dtype=bool)
    for bones, parents, child, parent, rc in _LEVELS:
        d = points[:, child] - points[:, parent]
        length = np.linalg.norm(d, axis=-1)
        # False where an endpoint is NaN, and where the length overflows to inf.
        good = ok[:, bones] = (length >= MIN_BONE_LENGTH) & (length < np.inf)
        q = rc if parents is None else rot[:, parents] @ rc
        posed = _posed_frame(d / length[..., None], q) @ rc.swapaxes(-1, -2)
        # Row k is frame k - 1's rotation and row 0 the held one; the largest ok k so far is the last ok frame.
        last = np.maximum.accumulate(np.where(good, np.arange(1, len(good) + 1)[:, None], 0), axis=0)
        rot[:, bones] = np.concatenate([held[bones][None], posed])[last, np.arange(len(bones))]
    return rot, ok


def retarget_frame(skeleton: Skeleton3D, previous: BoneTransformSet | None = None) -> BoneTransformSet:
    """One frame of retarget_chunks' chain as 4x4 transforms: bones lacking
    data hold their rotation in previous, when given, or the identity."""
    held = np.stack([
        previous.rotation(name) if previous is not None and name in previous.transforms else np.eye(3)
        for name in _NAMES
    ])
    rot, ok = _rotations(skeleton.positions[None], held)
    transforms = np.tile(np.eye(4), (len(BONES), 1, 1))
    transforms[:, :3, :3] = rot[0]
    return BoneTransformSet(
        frame=skeleton.frame,
        transforms=dict(zip(_NAMES, transforms)),
        statuses=dict(zip(_NAMES, [_STATUS[f] for f in ok[0].tolist()])),
    )


def retarget_chunks(chunks):
    """Retarget an in-order stream of (frames, (N, 15, 3) joints) chunks, holding rotations
    across gaps: per chunk, the frame indices, the (N, B, 3, 3) rotations and the (N, B)
    ok flags, bones in BONES order."""
    held = np.broadcast_to(np.eye(3), (len(BONES), 3, 3))
    for frames, points in chunks:
        rot, ok = _rotations(points, held)
        held = rot[-1].copy()
        yield frames, rot, ok
