"""3D joint estimation by iterative subdivision of a sampling volume.

For each joint, the search starts from one large axis-aligned cube.
A view votes for a cube when the viewing ray of its detected 2D joint hits
the cube and the whole cube lies in front of the camera. For a cube in
front of the camera that is the same as the pixel lying inside the convex
hull of the cube's eight projected vertices, but it needs only a slab test
against the box (Williams et al., "An efficient and robust ray-box
intersection algorithm", JGT 2005). Each view's ray is computed once per
joint. Cubes with fewer than `sigma` votes are pruned. Cubes that keep
consensus while all edges have shrunk below `delta` become candidates;
everything else splits into eight half-size children. The joint position
is the linear least-squares triangulation over the supporting views
(those whose ray hits some candidate), clamped to the bounding box of the
candidate cubes; the mean of candidate centers is kept only where that
solve is degenerate. Because the solve uses the rays themselves, the
noiseless error does not depend on `delta`.

Every joint starts from the same volume and every cube at a given depth
has the same edge lengths, so all joints of a frame share one frontier:
cube centers plus a joint-id column, processed one depth level at a time,
each level a single vectorized batch over every joint's cubes and every
calibrated view. Results are independent of observation order and of
which other joints share the search: votes are integer counts per row,
the runaway cap and the candidates are per joint in canonical order, and
the triangulation stacks its rows in view-id order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .geometry import CameraParams
from .skeleton import (
    ROOT_JOINT,
    STATUS_NO_CONSENSUS,
    STATUS_OK,
    Skeleton3D,
    SkeletonTopology,
)

# Unit corner signs of an axis-aligned cube, in a fixed canonical order.
_CORNER_SIGNS = np.array(sorted(itertools.product((-1.0, 1.0), repeat=3)))

# Containment is boundary-inclusive. Noiseless joints on a grid plane of
# the volume project onto cube edges up to rounding, so the slab test pads
# every box by this much, in mm.
_BOX_PAD = 1e-7


@dataclass(frozen=True)
class Cube:
    """Axis-aligned sampling region: center plus (w, h, l) edge lengths."""

    center: np.ndarray
    edges: tuple[float, float, float]

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(3)
        e = tuple(float(x) for x in self.edges)
        if not np.all(np.isfinite(c)):
            raise ValueError("cube center must be finite")
        if not all(0.0 < x < np.inf for x in e):
            raise ValueError("cube edges must be finite and positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "edges", e)


def _default_volume() -> Cube:
    return Cube(center=np.zeros(3), edges=(4000.0, 3000.0, 4000.0))


@dataclass(frozen=True)
class EstimatorConfig:
    """Parameters of the subdivision search.

    sigma: minimum number of consenting views for a cube to survive.
    delta: terminal cube size (w, h, l) in mm; a consenting cube whose
        edges are all strictly below delta becomes a candidate.
    initial_volume: the level-zero cube covering the capture space.
    min_confidence: observations below this confidence are ignored.
    max_candidates: safety cap against runaway traversals caused by
        degenerate calibrations.
    """

    sigma: int = 4
    delta: tuple[float, float, float] = (10.0, 10.0, 10.0)
    initial_volume: Cube = field(default_factory=_default_volume)
    min_confidence: float = 0.1
    max_candidates: int = 100_000

    def __post_init__(self):
        if self.sigma < 2:
            raise ValueError("sigma must be at least 2 (two perspectives fix a point)")
        d = tuple(float(x) for x in self.delta)
        if not all(0.0 < x < np.inf for x in d):
            raise ValueError("delta components must be finite and positive")
        if any(e < dv for e, dv in zip(self.initial_volume.edges, d)):
            raise ValueError("initial volume must be at least delta in every axis")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValueError("min_confidence must lie in [0, 1]")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be positive")
        object.__setattr__(self, "delta", d)


@dataclass(frozen=True)
class JointObservation:
    """One detected 2D joint in one view."""

    view_id: int
    pixel: np.ndarray
    confidence: float

    def __post_init__(self):
        object.__setattr__(self, "pixel", np.asarray(self.pixel, dtype=float).reshape(2))


@dataclass
class JointObservationFrame:
    """Per-frame detections: view id -> joint index -> observation."""

    frame: int
    views: dict[int, dict[int, JointObservation]]

    def observations_for(self, joint_idx: int) -> list[JointObservation]:
        out = []
        for view_id in sorted(self.views):
            obs = self.views[view_id].get(joint_idx)
            if obs is not None:
                out.append(obs)
        return out


@dataclass
class JointEstimate:
    """Result of one subdivision search.

    position is the least-squares triangulation over supporting_views,
    clamped to the bounding box of the candidate cubes (None without
    consensus). candidates and terminal_edges are diagnostics: the
    surviving terminal cube centers (canonically sorted) and their edge
    lengths.
    """

    position: np.ndarray | None
    candidate_count: int
    supporting_views: frozenset[int]
    status: str
    nodes_visited: int = 0
    candidates: np.ndarray | None = None
    terminal_edges: tuple[float, float, float] | None = None


def _camera_arrays(cameras: list[CameraParams]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    K = np.stack([c.intrinsic for c in cameras])
    R = np.stack([c.rotation for c in cameras])
    t = np.stack([c.translation for c in cameras])
    return K, R, t


def _rays(K: np.ndarray, R: np.ndarray, t: np.ndarray, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """World-frame viewing rays (V, 3): camera centers -R^T t and directions R^T K^-1 [u, v, 1].

    A view whose direction is not finite (an inf or NaN pixel) gets an
    all-NaN ray, which hits no cube.
    """
    homog = np.concatenate([pixels, np.ones((pixels.shape[0], 1))], axis=1)
    cam_dirs = np.linalg.solve(K, homog[:, :, None])[:, :, 0]
    origins = -np.einsum("vji,vj->vi", R, t)
    directions = np.einsum("vji,vj->vi", R, cam_dirs)
    bad = ~np.isfinite(directions).all(axis=1)
    origins[bad] = np.nan
    directions[bad] = np.nan
    return origins, directions


def _views_containing(
    centers: np.ndarray,
    jid: np.ndarray,
    edges: np.ndarray,
    R: np.ndarray,
    t: np.ndarray,
    origins: np.ndarray,
    directions: np.ndarray,
) -> np.ndarray:
    """Vote matrix (N, V): does view v's ray of joint jid[n] hit cube n?

    origins and directions are (J, V, 3), one ray per joint and view. A
    slab test against each box padded by _BOX_PAD, boundary inclusive. An
    axis-parallel ray gets infinite slab bounds, or NaN (0/0) when its
    origin lies on a face plane; the reductions skip NaN, so such a ray
    crosses that slab iff lo <= 0 <= hi. An all-NaN ray hits nothing. Views
    where the cube is not wholly in front of the camera do not vote: the
    nearest vertex has depth R[2]·c + t_z - sum_i |R[2, i]| h_i.
    """
    half = edges / 2.0
    in_front = centers @ R[:, 2, :].T + t[:, 2] - np.abs(R[:, 2, :]) @ half > 0.0  # (N, V)
    rel = centers[:, None, :] - origins[jid]  # (N, V, 3)
    d = directions[jid]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (rel - (half + _BOX_PAD)) / d
        t_hi = (rel + (half + _BOX_PAD)) / d
    lo, hi = np.minimum(t_lo, t_hi), np.maximum(t_lo, t_hi)
    # Pairwise over the three axes; np.fmax.reduce over a length-3 axis is
    # many times slower.
    near = np.fmax(np.fmax(lo[..., 0], lo[..., 1]), lo[..., 2])
    far = np.fmin(np.fmin(hi[..., 0], hi[..., 1]), hi[..., 2])
    return in_front & (near <= far)


def estimate_joint(
    observations: list[JointObservation],
    cameras: list[CameraParams],
    config: EstimatorConfig,
) -> JointEstimate:
    """Locate one 3D joint from multi-view detections; see estimate_joints."""
    return estimate_joints([observations], cameras, config)[0]


def estimate_joints(
    observations: list[list[JointObservation]],
    cameras: list[CameraParams],
    config: EstimatorConfig,
) -> list[JointEstimate]:
    """Locate several 3D joints, one per observation list, in one search.

    The subdivision search selects each joint's candidate cubes and the
    views that support them; its position is the linear least-squares
    triangulation over those views, clamped to the candidates' bounding
    box. A joint gets status "no_consensus" when it has fewer than sigma
    usable views or when fewer than sigma views ever agree, including the
    case where the search volume is exhausted. Each joint's result is the
    one it would get searched alone. Raises ValueError when one joint's
    list holds two observations from the same view.
    """
    by_id = {c.id: c for c in cameras}
    view_ids = sorted(by_id)
    column = {v: i for i, v in enumerate(view_ids)}
    # One column per calibrated view in view-id order; a view that is
    # missing or below min_confidence keeps a NaN pixel, whose ray votes
    # for no cube.
    pixels = np.full((len(observations), len(view_ids), 2), np.nan)
    usable = np.zeros(len(observations), dtype=int)
    for j, joint_obs in enumerate(observations):
        if len({o.view_id for o in joint_obs}) != len(joint_obs):
            raise ValueError(f"joint {j} has two observations from one view")
        for o in joint_obs:
            if o.confidence >= config.min_confidence:
                pixels[j, column[o.view_id]] = o.pixel
                usable[j] += 1
    results = [JointEstimate(None, 0, frozenset(), STATUS_NO_CONSENSUS) for _ in observations]
    active = np.flatnonzero(usable >= config.sigma)
    if not active.size:
        return results

    n_active, n_views = active.size, len(view_ids)
    K, R, t = _camera_arrays([by_id[v] for v in view_ids])
    origins, directions = _rays(
        np.tile(K, (n_active, 1, 1)),
        np.tile(R, (n_active, 1, 1)),
        np.tile(t, (n_active, 1)),
        pixels[active].reshape(-1, 2),
    )
    origins = origins.reshape(n_active, n_views, 3)
    directions = directions.reshape(n_active, n_views, 3)

    # The frontier of every active joint, one row per cube: all joints
    # start from the same volume and halve together, so each depth level
    # is one batch and shares its edge lengths.
    delta = np.asarray(config.delta, dtype=float)
    edges = np.asarray(config.initial_volume.edges, dtype=float)
    centers = np.repeat(config.initial_volume.center[None, :], n_active, axis=0)
    jid = np.arange(n_active)
    nodes = np.zeros(n_active, dtype=int)
    while True:
        nodes += np.bincount(jid, minlength=n_active)
        inside = _views_containing(centers, jid, edges, R, t, origins, directions)
        keep = inside.sum(axis=1) >= config.sigma
        centers, jid, inside = centers[keep], jid[keep], inside[keep]
        if not jid.size or np.all(edges < delta):
            break
        centers = _subdivide(centers, edges)
        jid = np.repeat(jid, 8)
        edges = edges / 2.0
        centers, jid = _cap_frontier(centers, jid, config.max_candidates)

    for a, j in enumerate(active):
        results[j] = JointEstimate(None, 0, frozenset(), STATUS_NO_CONSENSUS, nodes_visited=int(nodes[a]))
    if not jid.size:
        return results

    # Survivors exist only at the terminal level: they are the candidates.
    order = _by_joint(centers, jid)
    centers, jid, inside = centers[order], jid[order], inside[order]
    counts = np.bincount(jid, minlength=n_active)
    ends = np.cumsum(counts)
    for a in np.flatnonzero(counts):
        rows = slice(ends[a] - counts[a], ends[a])
        candidates = centers[rows]
        sel = np.flatnonzero(inside[rows].any(axis=0))
        position = _refine(candidates, edges / 2.0, K[sel], R[sel], t[sel], pixels[active[a], sel])
        results[active[a]] = JointEstimate(
            position=position,
            candidate_count=int(counts[a]),
            supporting_views=frozenset(view_ids[i] for i in sel),
            status=STATUS_OK,
            nodes_visited=int(nodes[a]),
            candidates=candidates,
            terminal_edges=tuple(edges),
        )
    return results


def _refine(
    candidates: np.ndarray,
    half: np.ndarray,
    K: np.ndarray,
    R: np.ndarray,
    t: np.ndarray,
    pixels: np.ndarray,
) -> np.ndarray:
    """Linear least-squares triangulation over the supporting views.

    Each view contributes the two direct-linear-transform rows u*P3 - P1
    and v*P3 - P2 of its projection matrix P = K [R | t]; the homogeneous
    solution is the smallest right singular vector (Hartley & Sturm,
    "Triangulation", CVIU 1997). The point is clamped to the bounding box
    of the candidate cubes, so it never leaves the region the search kept.
    A degenerate solve (point at infinity) falls back to the mean of
    candidate centers.
    """
    P = K @ np.concatenate([R, t[:, :, None]], axis=2)  # (V, 3, 4)
    A = (pixels[:, :, None] * P[:, 2:3, :] - P[:, :2, :]).reshape(-1, 4)
    X = np.linalg.svd(A, full_matrices=False)[2][-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        point = X[:3] / X[3]
    if not np.all(np.isfinite(point)):
        return candidates.mean(axis=0)
    return np.clip(point, candidates.min(axis=0) - half, candidates.max(axis=0) + half)


def _subdivide(centers: np.ndarray, edges: np.ndarray) -> np.ndarray:
    offs = _CORNER_SIGNS * (edges / 4.0)
    return (centers[:, None, :] + offs[None, :, :]).reshape(-1, 3)


def _by_joint(centers: np.ndarray, jid: np.ndarray) -> np.ndarray:
    """Row order that groups rows by joint, canonical (x, y, z) order within each."""
    return np.lexsort((centers[:, 2], centers[:, 1], centers[:, 0], jid))


def _cap_frontier(centers: np.ndarray, jid: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Runaway guard: keep each joint's first `limit` cubes in canonical order."""
    counts = np.bincount(jid)
    if counts.max() <= limit:
        return centers, jid
    order = _by_joint(centers, jid)
    centers, jid = centers[order], jid[order]
    rank = np.arange(jid.size) - np.repeat(np.cumsum(counts) - counts, counts)
    keep = rank < limit
    return centers[keep], jid[keep]


def estimate_skeleton(
    frame: JointObservationFrame,
    cameras: list[CameraParams],
    config: EstimatorConfig,
    topology: SkeletonTopology,
) -> Skeleton3D:
    """Estimate every detected joint independently, then synthesize the root.

    The pelvis root is not produced by 2D detection; it is placed at the
    midpoint of the two hip estimates and inherits no-consensus status when
    either hip is missing.
    """
    positions: dict[int, np.ndarray] = {}
    statuses: dict[int, str] = {}
    indices = topology.detected_joint_indices
    estimates = estimate_joints([frame.observations_for(idx) for idx in indices], cameras, config)
    for idx, est in zip(indices, estimates):
        statuses[idx] = est.status
        if est.status == STATUS_OK:
            positions[idx] = est.position

    r_hip, l_hip = 8, 11
    if statuses.get(r_hip) == STATUS_OK and statuses.get(l_hip) == STATUS_OK:
        positions[ROOT_JOINT] = 0.5 * (positions[r_hip] + positions[l_hip])
        statuses[ROOT_JOINT] = STATUS_OK
    else:
        statuses[ROOT_JOINT] = STATUS_NO_CONSENSUS

    return Skeleton3D(frame=frame.frame, positions=positions, statuses=statuses)
