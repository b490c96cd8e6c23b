"""3D joint estimation by iterative subdivision of a sampling volume.

For a single joint, a work queue starts from one large axis-aligned cube.
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

Because every cube at a given depth shares the same edge lengths, the
queue is processed one depth level at a time and each level is evaluated
as a single vectorized batch. Results are independent of observation
order: votes are integer counts, candidates are sorted canonically and
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
        if any(x <= 0 for x in e):
            raise ValueError("cube edges must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "edges", e)

    def vertices(self) -> np.ndarray:
        """The eight corners, (8, 3), canonical corner order."""
        return self.center + _CORNER_SIGNS * (np.asarray(self.edges) / 2.0)


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
        if any(x <= 0 for x in d):
            raise ValueError("delta components must be positive")
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
    edges: np.ndarray,
    R: np.ndarray,
    t: np.ndarray,
    origins: np.ndarray,
    directions: np.ndarray,
) -> np.ndarray:
    """Vote matrix (V, M): does view v's ray hit cube m?

    A slab test against each box padded by _BOX_PAD, boundary inclusive.
    An axis-parallel ray gets infinite slab bounds, or NaN (0/0) when its
    origin lies on a face plane; the reductions skip NaN, so such a ray
    crosses that slab iff lo <= 0 <= hi. Views where the cube is not wholly
    in front of the camera do not vote: the nearest vertex has depth
    R[2]·c + t_z - sum_i |R[2, i]| h_i.
    """
    half = edges / 2.0
    in_front = (centers @ R[:, 2, :].T + t[:, 2] - np.abs(R[:, 2, :]) @ half > 0.0).T  # (V, M)
    rel = centers[None, :, :] - origins[:, None, :]  # (V, M, 3)
    d = directions[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (rel - (half + _BOX_PAD)) / d
        t_hi = (rel + (half + _BOX_PAD)) / d
    near = np.fmax.reduce(np.minimum(t_lo, t_hi), axis=2)
    far = np.fmin.reduce(np.maximum(t_lo, t_hi), axis=2)
    return in_front & (near <= far)


def estimate_joint(
    observations: list[JointObservation],
    cameras: list[CameraParams],
    config: EstimatorConfig,
) -> JointEstimate:
    """Locate one 3D joint from multi-view detections.

    The subdivision search selects the candidate cubes and the views that
    support them; the position is the linear least-squares triangulation
    over those views, clamped to the candidates' bounding box. Returns
    status "no_consensus" when fewer than sigma views ever agree,
    including the case where the search volume is exhausted.
    """
    by_id = {c.id: c for c in cameras}
    # View-id order keeps the triangulation independent of observation order.
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
    candidates: np.ndarray | None = None
    support = np.zeros(len(usable), dtype=bool)

    while centers.shape[0]:
        nodes += centers.shape[0]
        inside = _views_containing(centers, edges, R, t, origins, directions)
        votes = inside.sum(axis=0)
        keep = votes >= config.sigma
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
            # Runaway guard: cap the working frontier deterministically.
            centers = _canonical_order(centers)[: config.max_candidates]

    if candidates is None or candidates.shape[0] == 0:
        return JointEstimate(None, 0, frozenset(), STATUS_NO_CONSENSUS, nodes_visited=nodes)

    candidates = _canonical_order(candidates)[: config.max_candidates]
    sel = np.flatnonzero(support)
    position = _refine(candidates, edges / 2.0, K[sel], R[sel], t[sel], pixels[sel])
    views = frozenset(view_ids[i] for i in sel)
    return JointEstimate(
        position=position,
        candidate_count=int(candidates.shape[0]),
        supporting_views=views,
        status=STATUS_OK,
        nodes_visited=nodes,
        candidates=candidates,
        terminal_edges=tuple(edges),
    )


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


def _canonical_order(centers: np.ndarray) -> np.ndarray:
    order = np.lexsort((centers[:, 2], centers[:, 1], centers[:, 0]))
    return centers[order]


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
    for idx in topology.detected_joint_indices:
        est = estimate_joint(frame.observations_for(idx), cameras, config)
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
