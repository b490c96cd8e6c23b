"""Reference implementations shared by the tests.

`hull_contains` is the independent containment oracle: scipy's convex hull
of the projected cube vertices. `slab_votes` runs the estimator's own
ray-box predicate on one cube. `estimate_joint_alone` is the per-joint
subdivision search, one work queue per joint, against which the shared
frontier of `estimate_joints` is checked. `class_frame_retarget` is the bone
rotation chain written in each bone's class frame: pull-back through the
parent, conjugations by the class rotation and a plus-or-minus angle roll
search, against which the world-frame retarget is checked.
"""

import numpy as np
from scipy.spatial import ConvexHull

from mvmocap.geometry import NonPositiveDepth, project_points
from mvmocap.mathutil import rotation_about_axis
from mvmocap.retarget import STATUS_FELL_BACK, PARALLEL_TOL, frame_from_bone
from mvmocap.skeleton import STATUS_NO_CONSENSUS, STATUS_OK, MissingJoint, ZeroLengthBone, bone_vector
from mvmocap.voxel import JointEstimate, _camera_arrays, _refine, _rays, _subdivide, _views_containing

# Boundary tolerance of the oracle, pixels of perpendicular distance.
HULL_TOL_PX = 1e-9


def hull_contains(cube, cam, pixel) -> bool:
    """Pixel inside the hull of the cube's projected vertices (boundary
    inclusive); False when any vertex is not in front of the camera."""
    try:
        verts = project_points(cube.vertices(), cam)
    except NonPositiveDepth:
        return False
    eq = ConvexHull(verts).equations  # unit outward normal n, offset b: n.x + b <= 0 inside
    return bool(np.all(eq[:, :2] @ np.asarray(pixel, dtype=float) + eq[:, 2] <= HULL_TOL_PX))


def _one_joint_votes(centers, edges, R, t, origins, directions) -> np.ndarray:
    """Vote matrix (V, M) of one joint's rays against M boxes."""
    jid = np.zeros(centers.shape[0], dtype=int)
    return _views_containing(centers, jid, edges, R, t, origins[None], directions[None]).T


def slab_votes(center, edges, cameras, pixels) -> np.ndarray:
    """Per-view votes of the estimator's predicate for one box, (V,) bool."""
    K, R, t = _camera_arrays(list(cameras))
    origins, directions = _rays(K, R, t, np.atleast_2d(np.asarray(pixels, dtype=float)))
    center = np.asarray(center, dtype=float)[None, :]
    return _one_joint_votes(center, np.asarray(edges, dtype=float), R, t, origins, directions)[:, 0]


def _canonical_order(centers):
    return centers[np.lexsort((centers[:, 2], centers[:, 1], centers[:, 0]))]


def estimate_joint_alone(observations, cameras, config) -> JointEstimate:
    """One joint's subdivision search over its own usable views only."""
    by_id = {c.id: c for c in cameras}
    usable = sorted(
        (o for o in observations if o.confidence >= config.min_confidence),
        key=lambda o: o.view_id,
    )
    if len(usable) < config.sigma:
        return JointEstimate(None, 0, frozenset(), STATUS_NO_CONSENSUS)

    view_ids = [o.view_id for o in usable]
    K, R, t = _camera_arrays([by_id[v] for v in view_ids])
    pixels = np.stack([o.pixel for o in usable])
    origins, directions = _rays(K, R, t, pixels)

    delta = np.asarray(config.delta, dtype=float)
    centers = config.initial_volume.center[None, :].copy()
    edges = np.asarray(config.initial_volume.edges, dtype=float)
    nodes = 0
    candidates = None
    support = np.zeros(len(usable), dtype=bool)

    while centers.shape[0]:
        nodes += centers.shape[0]
        inside = _one_joint_votes(centers, edges, R, t, origins, directions)
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
        if centers.shape[0] > config.max_candidates:
            centers = _canonical_order(centers)[: config.max_candidates]

    if candidates is None:
        return JointEstimate(None, 0, frozenset(), STATUS_NO_CONSENSUS, nodes_visited=nodes)

    candidates = _canonical_order(candidates)
    sel = np.flatnonzero(support)
    position = _refine(candidates, edges / 2.0, K[sel], R[sel], t[sel], pixels[sel])
    return JointEstimate(
        position=position,
        candidate_count=int(candidates.shape[0]),
        supporting_views=frozenset(view_ids[i] for i in sel),
        status=STATUS_OK,
        nodes_visited=nodes,
        candidates=candidates,
        terminal_edges=tuple(edges),
    )


_X = np.array([1.0, 0.0, 0.0])
_Y = np.array([0.0, 1.0, 0.0])


def is_rotation(m, tol: float = 1e-9) -> bool:
    """True when `m` is orthonormal with determinant +1 within `tol`."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        return False
    if not np.allclose(m @ m.T, np.eye(3), atol=tol):
        return False
    return abs(np.linalg.det(m) - 1.0) <= tol


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


def class_frame_retarget(skeletons, topology, template):
    """Per-frame (rotations, statuses) dicts from the class-frame chain,
    holding a bone's previous rotation across gaps."""
    previous: dict = {}
    for skeleton in skeletons:
        rotations, statuses = {}, {}
        for bone in topology.bones:
            g_parent = rotations[bone.parent_bone] if bone.parent_bone else np.eye(3)
            rc = template.frame_rotation[bone.frame_class]
            try:
                direction = bone_vector(skeleton, bone.name, topology)
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
