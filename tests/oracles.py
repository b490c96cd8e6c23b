"""Reference implementations and readers shared by the tests.

`project_one` is the per-point pinhole projection against which the
stacked `geometry.project` is checked. `hull_contains` is the independent
containment oracle: scipy's convex hull of the projected cube vertices.
`slab_votes` runs the estimator's own ray-box predicate on one cube, over
the cameras' `camera_arrays`, stacked in the order given rather than
sorted by id as `geometry.stack_cameras` does.
`views_containing_stacked` is the same slab test on (N, V, 3) arrays, all
three axes at once, against which the estimator's per-axis vote matrix is
checked bit for bit.
`estimate_joint_alone` is the per-joint subdivision search, one work queue
per joint and one SVD per refined joint (`refine_alone`), against which
the shared frontier and the stacked refinement of `estimate_joints` are
checked, field by field through `estimate_fields`; like the estimator, it takes a joint's (V, 3) detection table,
columns in ascending camera id, NaN where a view has no detection, and
reads the runaway cap `voxel.MAX_CANDIDATES` when it is called.
`dlt_triangulate` is the independent least-squares triangulation of
acceptance criterion 2, over (N, 2) pixels and their N cameras.
`class_frame_retarget` is the bone rotation chain written in each bone's
class frame: pull-back through the parent, the minimal swing
`frame_from_bone`, conjugations by the class rotation and a plus-or-minus
angle roll search, against which the world-frame retarget is checked.
`spin_correct` is the retarget's posed-frame step (`retarget._posed_frame`)
on one bone frame and its parent's, which acceptance criterion 7 rolls
and recovers.
`retarget_frame_alone` is the world-frame chain one frame and one bone at
a time, from the 3-vectors of `bone_vector`, against which the chunked
stacks of `retarget.retarget_chunks` are checked through
`retarget_sequence`, which reads them as one BoneTransformSet per frame.
`skeleton_chunks` cuts Skeleton3Ds into the (frames, positions) chunks of
`retarget.CHUNK_FRAMES` frames that `retarget.retarget_chunks` takes.
`read_skeletons` and `read_keypoints` read a stream one record at a time,
as Skeleton3Ds and as JointObservationFrames, views in listed order, over
the chunk readers of `io`. `estimate_frames` lays JointObservationFrames out
in one keypoint table by calibrated column, as `io.read_keypoints` does, and
estimates them with `voxel.estimate_skeletons`, one Skeleton3D per frame.
`rotations_per_bone` is the chunk chain one bone at a time over (N, 3, 3)
stacks, BONES order, ok rows only, the hold as a count of ok frames,
against which `retarget._rotations`, one pass per tree depth over
(N, b, 3, 3) stacks, is checked bit for bit.
`read_transforms` parses the `anim.jsonl` stream, which no subcommand reads.
`snap_rotation` is the calibration reader's rotation check and projection
one camera at a time, against which the stacked `io.load_cameras` is
checked bit for bit.
`joint_statuses`, `ok_joints` and `joint_ok` read a Skeleton3D's per-joint status
off its (15, 3) positions: a joint is ok exactly where its row is finite.
`overlay_svg` is the overlay builder one element at a time, an f-string and
a `format` call per coordinate, against which the one-template
`overlay.render_overlay_svg` is checked string for string.
`mean_length` is the error measure one row group at a time, a Python loop
adding the lengths of the rows that are not NaN, against which the stacked
`metrics.mean_lengths` (and through it `eval`) is checked bit for bit.
`calibration_text`, `keypoint_line_per_value`, `skeleton_line_per_value` and
`transform_line_per_value` are the writers with one `format(x, ".6f")` call
per float, "-0.000000" written unsigned value by value (`fmt`), against which
the %-templates of `io.save_cameras`, `io.keypoint_line`, `io.skeleton_line`
and `io.write_transforms` are checked string for string.
"""

import json
import math

import numpy as np
from scipy.spatial import ConvexHull

from mvmocap import io as mio
from mvmocap import retarget, voxel
from mvmocap.retarget import (
    MIN_BONE_LENGTH, PARALLEL_TOL, STATUS_FELL_BACK, _PARENT, BoneTransformSet, _posed_frame, retarget_chunks,
)
from mvmocap.skeleton import (
    BONES, DETECTED_JOINTS, FRAME_ROTATION, STATUS_NO_CONSENSUS, STATUS_OK, Skeleton3D, rotation_about_axis,
)
from mvmocap.voxel import (
    _BOX_PAD,
    _CORNER_SIGNS,
    JointEstimate,
    JointObservationFrame,
    _rays,
    _slab_votes,
    _subdivide,
)

# Boundary tolerance of the oracle, pixels of perpendicular distance.
HULL_TOL_PX = 1e-9


def camera_arrays(cameras) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K, R and t of the cameras stacked in the order given."""
    return tuple(np.stack([getattr(c, name) for c in cameras]) for name in ("intrinsic", "rotation", "translation"))


def cube_vertices(cube) -> np.ndarray:
    """The eight corners of a Cube, (8, 3), canonical corner order."""
    return cube.center + _CORNER_SIGNS * (np.asarray(cube.edges) / 2.0)


def project_one(point, cam) -> np.ndarray:
    """Pixel (u, v) of one world point, one matrix product at a time; NaN
    when its camera-frame depth is not positive."""
    p_cam = cam.rotation @ np.asarray(point, dtype=float) + cam.translation
    if p_cam[2] <= 0.0:
        return np.full(2, np.nan)
    img = cam.intrinsic @ p_cam
    return img[:2] / img[2]


def hull_contains(cube, cam, pixel) -> bool:
    """Pixel inside the hull of the cube's projected vertices (boundary
    inclusive); False when any vertex is not in front of the camera."""
    verts = np.array([project_one(v, cam) for v in cube_vertices(cube)])
    if np.isnan(verts).any():
        return False
    eq = ConvexHull(verts).equations  # unit outward normal n, offset b: n.x + b <= 0 inside
    return bool(np.all(eq[:, :2] @ np.asarray(pixel, dtype=float) + eq[:, 2] <= HULL_TOL_PX))


def views_containing_stacked(centers, jid, edges, origins, directions) -> np.ndarray:
    """Vote matrix (N, V), the transpose of the estimator's _slab_votes, from (N, V, 3) slab bounds.

    A view votes when its ray's slab interval is not empty and ends in front
    of the camera: a direction has camera depth 1 per unit of t.
    """
    half = edges / 2.0
    rel = centers[:, None, :] - origins[jid]  # (N, V, 3)
    d = directions[jid]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (rel - (half + _BOX_PAD)) / d
        t_hi = (rel + (half + _BOX_PAD)) / d
    lo, hi = np.minimum(t_lo, t_hi), np.maximum(t_lo, t_hi)
    near = np.fmax(np.fmax(lo[..., 0], lo[..., 1]), lo[..., 2])
    far = np.fmin(np.fmin(hi[..., 0], hi[..., 1]), hi[..., 2])
    return (near <= far) & (far > 0.0)


def _one_joint_votes(centers, edges, origins, directions) -> np.ndarray:
    """Vote matrix (V, M) of one joint's rays, (V, 3) camera centers and directions, against M boxes, one box per row (k = 1)."""
    jid = np.zeros(centers.shape[0], dtype=int)
    return _slab_votes(centers, jid, edges / 2.0, 1, origins.T, directions.T[:, :, None])


def slab_votes(center, edges, cameras, pixels) -> np.ndarray:
    """Per-view votes of the estimator's predicate for one box, (V,) bool."""
    K, R, t = camera_arrays(list(cameras))
    origins, directions = _rays(K, R, t, np.atleast_2d(np.asarray(pixels, dtype=float)))
    center = np.asarray(center, dtype=float)[None, :]
    return _one_joint_votes(center, np.asarray(edges, dtype=float), origins, directions)[:, 0]


def _canonical_order(centers):
    return centers[np.lexsort((centers[:, 2], centers[:, 1], centers[:, 0]))]


def refine_alone(candidates, half, K, R, t, pixels) -> np.ndarray:
    """One joint's least-squares triangulation over its supporting views, with its own SVD.

    The estimator's refinement before it was stacked: the two DLT rows
    u*P3 - P1 and v*P3 - P2 of each view, in the given order, the smallest
    right singular vector, then the clamp to the candidates' bounding box,
    or the mean of candidate centers where the solve is degenerate.
    """
    P = K @ np.concatenate([R, t[:, :, None]], axis=2)  # (V, 3, 4)
    A = (pixels[:, :, None] * P[:, 2:3, :] - P[:, :2, :]).reshape(-1, 4)
    X = np.linalg.svd(A, full_matrices=False)[2][-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        point = X[:3] / X[3]
    if not np.all(np.isfinite(point)):
        return candidates.mean(axis=0)
    return np.clip(point, candidates.min(axis=0) - half, candidates.max(axis=0) + half)


def estimate_joint_alone(table, cameras, config) -> JointEstimate:
    """One joint's subdivision search over its own usable views only."""
    usable = [
        (cam, row[:2])
        for cam, row in zip(sorted(cameras, key=lambda c: c.id), table)
        if row[2] >= config.min_confidence  # False for a NaN confidence
    ]
    if len(usable) < config.sigma:
        return JointEstimate(None, 0, frozenset(), STATUS_NO_CONSENSUS)

    view_ids = [cam.id for cam, _ in usable]
    K, R, t = camera_arrays([cam for cam, _ in usable])
    pixels = np.stack([pixel for _, pixel in usable])
    origins, directions = _rays(K, R, t, pixels)

    delta = np.asarray(config.delta, dtype=float)
    centers = config.initial_volume.center[None, :].copy()
    edges = np.asarray(config.initial_volume.edges, dtype=float)
    nodes = 0
    candidates = None
    support = np.zeros(len(usable), dtype=bool)

    while centers.shape[0]:
        nodes += centers.shape[0]
        inside = _one_joint_votes(centers, edges, origins, directions)
        keep = inside.sum(axis=0) >= config.sigma
        if not keep.any():
            break
        centers = centers[keep]
        inside = inside[:, keep]
        if np.all(edges < delta):
            candidates = centers
            support = inside.any(axis=1)
            break
        centers = _subdivide(centers, edges)
        edges = edges / 2.0
        if centers.shape[0] > voxel.MAX_CANDIDATES:
            centers = _canonical_order(centers)[: voxel.MAX_CANDIDATES]

    if candidates is None:
        return JointEstimate(None, 0, frozenset(), STATUS_NO_CONSENSUS, nodes_visited=nodes)

    candidates = _canonical_order(candidates)
    sel = np.flatnonzero(support)
    position = refine_alone(candidates, edges / 2.0, K[sel], R[sel], t[sel], pixels[sel])
    return JointEstimate(
        position=position,
        candidate_count=int(candidates.shape[0]),
        supporting_views=frozenset(view_ids[i] for i in sel),
        status=STATUS_OK,
        nodes_visited=nodes,
        candidates=candidates,
        terminal_edges=tuple(edges),
    )


def estimate_fields(est) -> tuple:
    """Every JointEstimate field, arrays as bytes, for bit-for-bit comparison."""
    return (
        est.status,
        None if est.position is None else est.position.tobytes(),
        est.candidate_count,
        est.supporting_views,
        est.nodes_visited,
        None if est.candidates is None else est.candidates.tobytes(),
        est.terminal_edges,
    )


class RankDeficient(ValueError):
    """Triangulation geometry does not pin down a unique point."""


def dlt_triangulate(pixels, cameras) -> np.ndarray:
    """Linear least-squares triangulation from stacked projection rows.

    pixels is (N, 2), row i seen by cameras[i]. Each row contributes the
    two classic direct-linear-transform constraints u*P3 - P1 and
    v*P3 - P2; the homogeneous solution is the smallest right singular
    vector. Raises RankDeficient for fewer than two views or collinear ray
    geometry.
    """
    if len(pixels) < 2:
        raise RankDeficient("triangulation needs at least two views")
    rows = []
    for (u, v), cam in zip(pixels, cameras):
        P = cam.intrinsic @ np.hstack([cam.rotation, cam.translation[:, None]])
        rows.append(u * P[2] - P[0])
        rows.append(v * P[2] - P[1])
    A = np.stack(rows)
    _, s, vt = np.linalg.svd(A)
    if s[2] <= 1e-9 * s[0]:
        raise RankDeficient("observation rays are collinear")
    X = vt[-1]
    if abs(X[3]) <= 1e-12 * np.linalg.norm(X[:3]):
        raise RankDeficient("triangulated point is at infinity")
    return X[:3] / X[3]


_X = np.array([1.0, 0.0, 0.0])
_Y = np.array([0.0, 1.0, 0.0])


class MissingJoint(ValueError):
    """A bone endpoint has no reconstructed position."""


def snap_rotation(r: np.ndarray) -> np.ndarray:
    """One file-precision rotation projected back onto an exact rotation;
    ValueError if it is further than 1e-4 from orthonormal or reflects."""
    if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-4 or np.linalg.det(r) < 0:
        raise ValueError("R is not a rotation matrix")
    u, _, vt = np.linalg.svd(r)
    snapped = u @ vt
    if np.linalg.det(snapped) < 0:
        raise ValueError("R is not a rotation matrix")
    return snapped


def joint_statuses(skeleton) -> dict[int, str]:
    """Status of every joint of a skeleton by index, in index order."""
    ok = np.isfinite(skeleton.positions).all(axis=1).tolist()
    return {i: STATUS_OK if o else STATUS_NO_CONSENSUS for i, o in enumerate(ok)}


def ok_joints(skeleton) -> set[int]:
    """Indices of the joints of a skeleton that are ok."""
    return {i for i, s in joint_statuses(skeleton).items() if s == STATUS_OK}


def joint_ok(skeleton, idx) -> bool:
    return bool(np.isfinite(skeleton.positions[idx]).all())


class ZeroLengthBone(ValueError):
    """Bone endpoints coincide; no direction can be derived."""


class OverflowingBone(ZeroLengthBone):
    """Bone endpoints are finite but so far apart that the length overflows to inf."""


def bone_vector(skeleton, bone_name):
    """Unit direction of a bone, child joint minus parent joint.

    Raises MissingJoint if either endpoint is not ok, ZeroLengthBone if
    the endpoints coincide within 1e-6 mm and OverflowingBone if their
    distance is not finite.
    """
    bone = next(b for b in BONES if b.name == bone_name)
    for idx in (bone.parent_joint, bone.child_joint):
        if not joint_ok(skeleton, idx):
            raise MissingJoint(f"joint {idx} has no position")
    d = skeleton.positions[bone.child_joint] - skeleton.positions[bone.parent_joint]
    length = np.linalg.norm(d)
    if length < 1e-6:
        raise ZeroLengthBone(f"bone {bone_name} endpoints coincide")
    if length == np.inf:
        raise OverflowingBone(f"bone {bone_name} is longer than a float holds")
    return d / length


class DegenerateParallel(ValueError):
    """Bone direction is (anti)parallel to the reference axis."""


def _frame_about(x_axis, y_hint):
    """Right-handed basis with the given x-axis and y nearest to y_hint."""
    y = y_hint - np.dot(y_hint, x_axis) * x_axis
    n = np.linalg.norm(y)
    if n < PARALLEL_TOL:
        raise DegenerateParallel("secondary axis is parallel to the bone axis")
    y = y / n
    return np.column_stack([x_axis, y, np.cross(x_axis, y)])


def frame_from_bone(x_prime, x_ref, secondary=None):
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


def is_rotation(m, tol: float = 1e-9) -> bool:
    """True when `m` is orthonormal with determinant +1 within `tol`."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        return False
    if not np.allclose(m @ m.T, np.eye(3), atol=tol):
        return False
    return abs(np.linalg.det(m) - 1.0) <= tol


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


def roll_search_spin_correct(rotation, parent_frame):
    """Roll the frame about its x-axis by plus or minus the dihedral angle
    between the planes (x, parent y) and (x, frame y), keeping the
    candidate whose y-axis lands in the reference plane."""
    x_axis = rotation[:, 0]
    y_ref = parent_frame[:, 1]
    n_ref = np.cross(x_axis, y_ref)
    norm_ref = np.linalg.norm(n_ref)
    if norm_ref < PARALLEL_TOL:
        return rotation
    n_ref = n_ref / norm_ref
    n_cur = np.cross(x_axis, rotation[:, 1])
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


def class_frame_retarget(skeletons):
    """Per-frame (rotations, statuses) dicts from the class-frame chain,
    holding a bone's previous rotation across gaps."""
    previous: dict = {}
    for skeleton in skeletons:
        rotations, statuses = {}, {}
        for bone in BONES:
            g_parent = rotations[bone.parent_bone] if bone.parent_bone else np.eye(3)
            rc = FRAME_ROTATION[bone.frame_class]
            try:
                direction = bone_vector(skeleton, bone.name)
            except (MissingJoint, ZeroLengthBone):
                rotations[bone.name] = previous.get(bone.name, np.eye(3))
                statuses[bone.name] = STATUS_FELL_BACK
                continue
            x_local = rc.T @ (g_parent.T @ direction)
            local = frame_from_bone(x_local, _X, secondary=_Y)
            parent_local = rc.T @ g_parent @ rc
            acc = roll_search_spin_correct(parent_local @ local, parent_local)
            rotations[bone.name] = rc @ acc @ rc.T  # back to global coordinates
            statuses[bone.name] = STATUS_OK
        previous = rotations
        yield rotations, statuses


def posed_frame_alone(direction, q):
    """Right-handed frame [d, y, d x y] on one unit direction d, y nearest to q's y-axis,
    or the unit q_z x d where the two are parallel."""
    y = q[:, 1] - np.dot(q[:, 1], direction) * direction
    n = np.linalg.norm(y)
    if n < PARALLEL_TOL:
        y = np.cross(q[:, 2], direction)
        n = np.linalg.norm(y)
    y = y / n
    return np.column_stack([direction, y, np.cross(direction, y)])


def retarget_frame_alone(skeleton, previous=None):
    """One frame's BoneTransformSet from a loop over the bones, parents first.

    A bone with a direction from bone_vector gets
    posed_frame_alone(d, g_parent @ rc) @ rc.T; one without holds its
    rotation in `previous`, or the identity.
    """
    transforms, statuses, global_rot = {}, {}, {}
    for bone in BONES:
        try:
            direction = bone_vector(skeleton, bone.name)
        except (MissingJoint, ZeroLengthBone):
            rot = previous.rotation(bone.name).copy() if previous is not None else np.eye(3)
            statuses[bone.name] = STATUS_FELL_BACK
        else:
            rc = FRAME_ROTATION[bone.frame_class]
            q = global_rot[bone.parent_bone] @ rc if bone.parent_bone else rc
            rot = posed_frame_alone(direction, q) @ rc.T
            statuses[bone.name] = STATUS_OK
        global_rot[bone.name] = rot
        transforms[bone.name] = np.eye(4)
        transforms[bone.name][:3, :3] = rot
    return BoneTransformSet(frame=skeleton.frame, transforms=transforms, statuses=statuses)


def skeleton_chunks(skeletons):
    """The (frames, (N, 15, 3) positions) chunks of retarget.CHUNK_FRAMES skeletons each, as the reader yields them."""
    skeletons = list(skeletons)
    n = retarget.CHUNK_FRAMES
    for start in range(0, len(skeletons), n):
        chunk = skeletons[start : start + n]
        yield [s.frame for s in chunk], np.stack([s.positions for s in chunk])


def read_skeletons(path):
    """One Skeleton3D per record of the skeleton stream at path."""
    for frames, positions in mio.read_skeletons(path, 16):
        yield from map(Skeleton3D, frames, positions)


def read_keypoints(path, calibrated):
    """One JointObservationFrame per record of the keypoint stream at path, its
    views in listed order; calibrated holds the calibrated camera ids."""
    ids = sorted(calibrated)
    for frames, (rows, columns), table in mio.read_keypoints(path, {v: c for c, v in enumerate(ids)}, 16):
        for k, frame in enumerate(frames):
            listed = [c for r, c in zip(rows, columns) if r == k]
            yield JointObservationFrame(frame, [ids[c] for c in listed], table[k, listed])


def estimate_frames(frames, cameras, config):
    """voxel.estimate_skeletons of JointObservationFrames laid out by calibrated column, one Skeleton3D per frame."""
    column = {v: c for c, v in enumerate(sorted(camera.id for camera in cameras))}
    table = np.full((len(frames), len(column), len(DETECTED_JOINTS), 3), np.nan)
    for f, frame in enumerate(frames):
        table[f, [column[v] for v in frame.view_ids]] = frame.table
    return [Skeleton3D(frame.frame, p) for frame, p in zip(frames, voxel.estimate_skeletons(table, cameras, config))]


def retarget_sequence(skeletons):
    """retarget_chunks' stacks as one BoneTransformSet per frame, in order: each
    rotation in a 4x4 with zero translation, each ok flag as STATUS_OK or
    STATUS_FELL_BACK."""
    for frames, rot, ok in retarget_chunks(skeleton_chunks(skeletons)):
        for frame, rotations, flags in zip(frames, rot, ok):
            transforms, statuses = {}, {}
            for bone, r, flag in zip(BONES, rotations, flags):
                transforms[bone.name] = np.eye(4)
                transforms[bone.name][:3, :3] = r
                statuses[bone.name] = STATUS_OK if flag else STATUS_FELL_BACK
            yield BoneTransformSet(frame=frame, transforms=transforms, statuses=statuses)


@np.errstate(over="ignore")  # a length that overflows to inf is caught below
def rotations_per_bone(points, held):
    """retarget._rotations one bone at a time over (N, 3, 3) stacks, BONES order, parents first.

    Bone rotations (N, B, 3, 3) and ok flags (N, B) of N frames' (N, 15, 3)
    joints, NaN where not ok: a bone is ok where both endpoints are finite
    and its length is finite and at least MIN_BONE_LENGTH; elsewhere it
    holds its rotation from the last ok frame, or held[b] before the first.
    """
    rot = np.empty((points.shape[0], len(BONES), 3, 3))
    ok = np.empty((points.shape[0], len(BONES)), dtype=bool)
    for b, bone in enumerate(BONES):
        d = points[:, bone.child_joint] - points[:, bone.parent_joint]
        length = np.linalg.norm(d, axis=1)
        # False where an endpoint is NaN, and where the length overflows to inf.
        good = ok[:, b] = (length >= MIN_BONE_LENGTH) & (length < np.inf)
        rc = FRAME_ROTATION[bone.frame_class]
        q = rot[good, _PARENT[b]] @ rc if bone.parent_bone else rc
        posed = _posed_frame(d[good] / length[good, None], q) @ rc.T
        if good.all():
            rot[:, b] = posed
        else:
            # Row k + 1 is the k-th ok frame's rotation and row 0 the held one;
            # the count of ok frames so far picks the last of them.
            rot[:, b] = np.concatenate([held[b][None], posed])[np.cumsum(good)]
    return rot, ok


def read_transforms(path):
    """One BoneTransformSet per line of an `anim.jsonl` file."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            yield BoneTransformSet(
                frame=rec["frame"],
                transforms={b["name"]: np.array(b["T"], dtype=float) for b in rec["bones"]},
                statuses={b["name"]: b["status"] for b in rec["bones"]},
            )


def overlay_svg(cam, detected, reprojected) -> str:
    """One view's SVG overlay, element by element: the header, the bones between
    present reprojected joints, then red detected and blue reprojected markers.
    A row is present when its x is not NaN."""

    def f(x):
        return format(float(x), ".3f")

    def present(points):
        return {i: (x, y) for i, (x, y) in enumerate(points.tolist()) if not math.isnan(x)}

    detected, reprojected = present(detected), present(reprojected)
    w, h = cam.resolution
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for bone in BONES:
        a = reprojected.get(bone.parent_joint)
        b = reprojected.get(bone.child_joint)
        if a is None or b is None:
            continue
        parts.append(f'<line x1="{f(a[0])}" y1="{f(a[1])}" x2="{f(b[0])}" y2="{f(b[1])}" '
                     'stroke="steelblue" stroke-width="2"/>')
    for color, points in (("red", detected), ("blue", reprojected)):
        for x, y in points.values():  # ascending joint index
            parts.append(f'<circle cx="{f(x)}" cy="{f(y)}" r="5" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def mean_length(d) -> float | None:
    """Mean Euclidean length of the rows of the (J, k) array d that are not NaN, summed in row order; None if every row is NaN."""
    total, count = 0.0, 0
    for length in np.sqrt(np.vecdot(d, d)).tolist():
        if not math.isnan(length):
            total += length
            count += 1
    return total / count if count else None


def fmt(x: float) -> str:
    """x with 6 decimals; a value in (-5e-7, 0] is written "0.000000", without its sign."""
    text = format(float(x), ".6f")
    return "0.000000" if text == "-0.000000" else text


def _fmt_vector(v) -> str:
    return "[" + ", ".join(fmt(x) for x in np.asarray(v, dtype=float)) + "]"


def _fmt_matrix(m) -> str:
    return "[" + ", ".join(_fmt_vector(row) for row in np.asarray(m, dtype=float)) + "]"


def calibration_text(cameras) -> str:
    """The calibration file `io.save_cameras` writes, one camera entry per line."""
    entries = []
    for c in cameras:
        w, h = c.resolution
        entries.append(
            "{"
            + f'"id": {c.id}, "K": {_fmt_matrix(c.intrinsic)}, "R": {_fmt_matrix(c.rotation)}, '
            + f'"t": {_fmt_vector(c.translation)}, "width": {w}, "height": {h}'
            + "}"
        )
    return "[\n" + ",\n".join(entries) + "\n]\n"


def keypoint_line_per_value(frame) -> str:
    """The keypoint record of a JointObservationFrame: views by ascending id, each
    joint whose confidence is not NaN by ascending index."""
    view_parts = []
    for r in np.argsort(frame.view_ids):
        joint_parts = []
        for idx, (u, v, c) in enumerate(frame.table[r].tolist()):
            if math.isnan(c):
                continue
            joint_parts.append(f'{{"idx": {idx}, "u": {fmt(u)}, "v": {fmt(v)}, "c": {fmt(c)}}}')
        view_parts.append(f'{{"view_id": {frame.view_ids[r]}, "joints": [' + ", ".join(joint_parts) + "]}")
    return f'{{"frame": {frame.frame}, "views": [' + ", ".join(view_parts) + "]}"


def skeleton_line_per_value(skel) -> str:
    """The skeleton record of a Skeleton3D: all 15 joints in index order, "ok" with
    its position where the row is finite, "no_consensus" without one elsewhere."""
    parts = []
    for idx, (x, y, z) in enumerate(skel.positions.tolist()):
        if math.isfinite(x) and math.isfinite(y) and math.isfinite(z):
            parts.append(f'{{"idx": {idx}, "status": "{STATUS_OK}", "p": [{fmt(x)}, {fmt(y)}, {fmt(z)}]}}')
        else:
            parts.append(f'{{"idx": {idx}, "status": "{STATUS_NO_CONSENSUS}"}}')
    return f'{{"frame": {skel.frame}, "joints": [' + ", ".join(parts) + "]}"


def transform_line_per_value(tset) -> str:
    """The transform record of a BoneTransformSet: bones by name, each with
    its status and every entry of its 4x4 matrix, row-major."""
    bones = []
    for name in sorted(tset.transforms):
        bones.append(f'{{"name": "{name}", "status": "{tset.statuses[name]}", "T": {_fmt_matrix(tset.transforms[name])}}}')
    return f'{{"frame": {tset.frame}, "bones": [' + ", ".join(bones) + "]}"
