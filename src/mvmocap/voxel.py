"""3D joint estimation by iterative subdivision of a sampling volume.

For each joint, the search starts from one large axis-aligned cube.
A view votes for a cube when the viewing ray of its detected 2D joint,
from the camera center forward, hits the cube: a slab test whose ray
interval starts at t = 0 (Williams et al., "An efficient and robust
ray-box intersection algorithm", JGT 2005). For a cube wholly in front of
the camera that is the pixel lying inside the convex hull of the cube's
eight projected vertices. Each view's camera center is computed
once per search, and its ray direction once per joint and view. Cubes
with fewer than `sigma` votes are pruned. Cubes that keep consensus while
all edges have shrunk below `delta` become candidates;
everything else splits into eight half-size children. The joint position
is the linear least-squares triangulation over the supporting views
(those whose ray hits some candidate), clamped to the bounding box of the
candidate cubes; the mean of candidate centers is kept only where that
solve is degenerate. Because the solve uses the rays themselves, the
noiseless error does not depend on `delta`.

Every joint starts from the same volume and every cube at a given depth
has the same edge lengths, so all joints of up to CHUNK_FRAMES frames share
one frontier: cube centers plus a joint-id column, processed one depth
level at a time, each level a single vectorized batch over every joint's
cubes and every calibrated view, whose votes form a (V, M) matrix over the
level's M cubes. Along each axis the eight children of a parent take only
two center coordinates, c ± e/4, so a level's slab test runs on its
parents' per-axis slabs, (V, 2, n) arrays over the n parents, folded into
all eight children at once; the root level, and a level whose children the
runaway cap MAX_CANDIDATES trimmed, are slab-tested one cube per column;
only the cubes with sigma votes (about one in eight) get a center. The search
reads a (J, V, 3) table of (u, v, confidence), one column per calibrated
view in view-id order, NaN where a view has no detection.
estimate_joints and estimate_joint take that table as it is;
estimate_skeletons stacks it from the frames' keypoint tables, whose rows
may list the views in any order. Results are independent of that order and
of which other joints share the search: votes are integer counts per cube,
the runaway cap and the candidates are per joint in canonical order, and
the triangulation stacks its rows in view-id order.

The refinement of all joints that reached consensus runs as one SVD per
distinct number s of supporting views, over an (n_s, 2s, 4) stack of
their rows. It is not padded to all V views with zero rows: a padded
solve is the same in exact arithmetic but not bit for bit, and changed the
last bits of 1 of 173 positions on a 15-frame squat (2 px noise, delta 60,
seed 7; by 8.5e-14 mm), where grouping reproduces the per-joint solve
exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .geometry import CameraParams, stack_cameras
from .skeleton import DETECTED_JOINTS, JOINT_NAMES, ROOT_JOINT, STATUS_NO_CONSENSUS, STATUS_OK, Skeleton3D

# Unit corner signs of an axis-aligned cube, in a fixed canonical order.
_CORNER_SIGNS = np.array(sorted(itertools.product((-1.0, 1.0), repeat=3)))
# The same signs along one axis, as a column: x varies slowest in _CORNER_SIGNS, z fastest.
_HALF_SIGNS = np.array([[-1.0], [1.0]])

# Containment is boundary-inclusive. Noiseless joints on a grid plane of
# the volume project onto cube edges up to rounding, so the slab test pads
# every box by this much, in mm.
_BOX_PAD = 1e-7

# Runaway guard against degenerate calibrations: after subdividing, each
# joint keeps at most this many cubes of a level, the first in canonical order.
MAX_CANDIDATES = 100_000

# Frames per search in `reconstruct`; the output bytes do not depend on it. On fresh 200-frame
# walk runs 8 took 9-27 % less CPU than 4, while 16 was 10 % faster or slower than 8 by scene
# and peaked 0.3-0.5 MB higher.
CHUNK_FRAMES = 8


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

    The runaway cap is the module constant MAX_CANDIDATES, not a setting.
    """

    sigma: int = 4
    delta: tuple[float, float, float] = (10.0, 10.0, 10.0)
    initial_volume: Cube = field(default_factory=_default_volume)
    min_confidence: float = 0.1

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
        object.__setattr__(self, "delta", d)


@dataclass
class JointObservationFrame:
    """Per-frame detections as a keypoint table.

    table has shape (V, 14, 3): row r belongs to view view_ids[r], and
    table[r, i] is (u, v, confidence) of detected joint i, all NaN where
    that view has no detection of the joint.
    """

    frame: int
    view_ids: list[int]
    table: np.ndarray


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


def _rays(K: np.ndarray, R: np.ndarray, t: np.ndarray, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """World-frame viewing rays of pixels (..., V, 2) in the V calibrated views.

    Returns the camera centers -R^T t (V, 3), one per view, and the
    directions R^T K^-1 [u, v, 1] (..., V, 3). A direction that is not
    finite (an inf or NaN pixel) becomes all NaN, which fails every slab,
    so its ray hits no cube.
    """
    homog = np.concatenate([pixels, np.ones(pixels.shape[:-1] + (1,))], axis=-1)
    cam_dirs = np.linalg.solve(K, homog[..., None])[..., 0]
    origins = -np.einsum("vji,vj->vi", R, t)
    directions = np.einsum("vji,...vj->...vi", R, cam_dirs)
    directions[~np.isfinite(directions).all(axis=-1)] = np.nan
    return origins, directions


def _slab_votes(parents: np.ndarray, jid: np.ndarray, half: np.ndarray, k: int,
                origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Slab-test votes (V, k³·n): does view v's ray of joint jid[p] hit box m in front of the camera?

    The boxes of half edges half are the n parents (n, 3) themselves (k = 1)
    or their eight children in (corner, parent) order as _subdivide gives
    them (k = 2). origins (3, V) are the camera centers, one per axis and
    view, and directions (3, V, J) one per axis, view and joint. A view votes
    when the slab interval [near, far] is not empty and far > 0: t is the
    camera depth, so a box holding a point the camera sees has far > 0. Each
    box is padded by _BOX_PAD, boundary inclusive:
    along axis a the boxes of a parent take only k coordinates, c or the
    children's c ± e/4, so the slab bounds are one (3, V, k, n) stack,
    folded over the axes in order into (V, k, k, k, n). An axis-parallel
    ray gets infinite slab bounds, or NaN (0/0) when its origin lies on a
    face plane; the reductions skip NaN, so such a ray crosses that slab
    iff lo <= 0 <= hi. An all-NaN direction hits nothing: the fold of NaN
    bounds is NaN, and NaN <= NaN and NaN > 0 are False."""
    c = parents.T[:, None, :]  # (3, 1, n)
    if k == 2:
        c = c + _HALF_SIGNS * half[:, None, None]  # (3, 2, n)
    rel = c[:, None] - origins[:, :, None, None]  # (3, V, k, n)
    d = np.take(directions, jid, axis=2)[:, :, None, :]
    pad = (half + _BOX_PAD)[:, None, None, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a subnormal component overflows to inf
        t_lo, t_hi = (rel - pad) / d, (rel + pad) / d
    lo, hi = np.minimum(t_lo, t_hi), np.maximum(t_lo, t_hi)
    del rel, t_lo, t_hi  # fewer (3, V, k, n) arrays live at once: a lower peak than the per-axis form
    n_views, n = d.shape[1], jid.size
    x, y, z = (n_views, k, 1, 1, n), (n_views, 1, k, 1, n), (n_views, 1, 1, k, n)
    near = np.fmax(np.fmax(lo[0].reshape(x), lo[1].reshape(y)), lo[2].reshape(z))
    del lo
    far = np.fmin(np.fmin(hi[0].reshape(x), hi[1].reshape(y)), hi[2].reshape(z))
    return ((near <= far) & (far > 0.0)).reshape(n_views, -1)


def estimate_joint(table: np.ndarray, cameras: list[CameraParams], config: EstimatorConfig) -> JointEstimate:
    """Locate one 3D joint from its (V, 3) detection table; see estimate_joints."""
    return estimate_joints(np.asarray(table, dtype=float)[None], cameras, config)[0]


def estimate_joints(table: np.ndarray, cameras: list[CameraParams], config: EstimatorConfig) -> list[JointEstimate]:
    """Locate several 3D joints, one per row of a (J, V, 3) table, in one search.

    table[j, v] is joint j's (u, v, confidence) in the camera with the v-th
    smallest id, all NaN where that view has no detection. The subdivision
    search selects each joint's candidate cubes and the views that support
    them; its position is the linear least-squares triangulation over those
    views, clamped to the candidates' bounding box. A joint gets status
    "no_consensus" when it has fewer than sigma usable views or when fewer
    than sigma views ever agree, including the case where the search
    volume is exhausted. Each joint's result is the one it would get
    searched alone.
    """
    view_ids, K, R, t = stack_cameras(cameras)
    found = _search(np.asarray(table, dtype=float), K, R, t, config)
    nodes = found.nodes.tolist()
    results = [JointEstimate(None, 0, frozenset(), STATUS_NO_CONSENSUS, nodes_visited=n) for n in nodes]
    for k, j in enumerate(found.ok.tolist()):
        start, count = found.starts[k], found.counts[k]
        results[j] = JointEstimate(
            position=found.positions[k],
            candidate_count=int(count),
            supporting_views=frozenset(view_ids[i] for i in np.flatnonzero(found.support[k])),
            status=STATUS_OK,
            nodes_visited=nodes[j],
            candidates=found.centers[start : start + count],
            terminal_edges=tuple(found.edges),
        )
    return results


@dataclass
class _Search:
    """Outcome of one shared search over a (J, V, 3) keypoint table.

    nodes (J,) counts each joint's visited cubes. The k-th joint listed in
    ok reached consensus with the counts[k] candidates of centers from
    starts[k] (canonical order), the views support[k] (V,) and the position
    positions[k]. edges are the terminal edge lengths.
    """

    nodes: np.ndarray
    ok: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    centers: np.ndarray
    support: np.ndarray
    positions: np.ndarray
    edges: np.ndarray


def _search(table: np.ndarray, K: np.ndarray, R: np.ndarray, t: np.ndarray, config: EstimatorConfig) -> _Search:
    """The shared subdivision search of every joint (row) of a (J, V, 3) table.

    Column v of the table holds (u, v, confidence) in calibrated view v
    (K[v], R[v], t[v]), NaN where that view has no detection. A detection
    below min_confidence counts as missing; a missing view keeps a NaN
    pixel, whose ray votes for no cube.
    """
    n_joints = table.shape[0]
    usable = table[:, :, 2] >= config.min_confidence
    pixels = np.where(usable[:, :, None], table[:, :, :2], np.nan)
    origins, directions = _rays(K, R, t, pixels)
    # Axis-major rays, (3, V) centers and (3, V, J) directions: a level gathers its directions with one np.take.
    origins, directions = origins.T, np.ascontiguousarray(directions.transpose(2, 1, 0))

    # The frontier of every joint with sigma usable views, one row per
    # cube: all joints start from the same volume and halve together, so
    # each depth level is one batch and shares its edge lengths. A level is
    # slab-tested from its parents (k = 2) unless it is the root or was trimmed.
    delta = np.asarray(config.delta, dtype=float)
    edges = np.asarray(config.initial_volume.edges, dtype=float)
    pid = np.flatnonzero(usable.sum(axis=1) >= config.sigma)
    parents = np.repeat(config.initial_volume.center[None, :], pid.size, axis=0)
    k = 1
    nodes = np.bincount(pid, minlength=n_joints)
    while True:  # a search with no joint ends at the root, with no survivors
        half = edges / 2.0
        slab = _slab_votes(parents, pid, half, k, origins, directions)
        cand = np.flatnonzero(slab.sum(axis=0) >= config.sigma)  # the level's survivors
        p = cand % pid.size
        centers = parents[p] if k == 1 else parents[p] + _CORNER_SIGNS[cand // pid.size] * half
        jid = pid[p]
        if not jid.size or np.all(edges < delta):
            break
        counts = np.bincount(jid, minlength=n_joints)
        if 8 * counts.max() <= MAX_CANDIDATES:
            parents, pid, k = centers, jid, 2
            nodes += 8 * counts
        else:  # the runaway cap trims the children: vote them as they are
            parents, pid = _cap_frontier(_subdivide(centers, edges), np.tile(jid, 8), MAX_CANDIDATES)
            k = 1
            nodes += np.bincount(pid, minlength=n_joints)
        edges = edges / 2.0

    # Survivors exist only at the terminal level: they are the candidates.
    order = _by_joint(centers, jid)
    centers, jid, inside = centers[order], jid[order], slab.T[cand[order]]
    counts = np.bincount(jid, minlength=n_joints)
    ok = np.flatnonzero(counts)
    counts = counts[ok]
    starts = np.cumsum(counts) - counts
    support = np.logical_or.reduceat(inside, starts, axis=0)
    P = K @ np.concatenate([R, t[:, :, None]], axis=2)  # (V, 3, 4)
    positions = _refine(centers, starts, counts, edges / 2.0, support, P, pixels[ok])
    return _Search(nodes, ok, starts, counts, centers, support, positions, edges)


def _refine(
    centers: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    half: np.ndarray,
    support: np.ndarray,
    P: np.ndarray,
    pixels: np.ndarray,
) -> np.ndarray:
    """Linear least-squares triangulation of each joint k over its views support[k].

    Joint k's candidates are the counts[k] rows of centers from starts[k],
    its pixels are pixels[k] (V, 2), and P (V, 3, 4) holds K [R | t]. Each
    supporting view contributes the two direct-linear-transform rows
    u*P3 - P1 and v*P3 - P2, in view-id order; the homogeneous solution is
    the smallest right singular vector (Hartley & Sturm, "Triangulation",
    CVIU 1997). The point is clamped to the bounding box of the candidate
    cubes, so it never leaves the region the search kept; a degenerate
    solve (point at infinity) falls back to the mean of candidate centers.
    """
    points = np.empty((starts.size, 3))
    n_sup = support.sum(axis=1)
    # A set of Python ints, not np.unique, which imports numpy.ma.
    for s in set(n_sup.tolist()):
        group = np.flatnonzero(n_sup == s)  # the joints with s supporting views
        views = np.nonzero(support[group])[1].reshape(group.size, s)  # ascending per joint
        Pv, uv = P[views], pixels[group[:, None], views]  # (n, s, 3, 4), (n, s, 2)
        A = (uv[:, :, :, None] * Pv[:, :, 2:3, :] - Pv[:, :, :2, :]).reshape(group.size, 2 * s, 4)
        X = np.linalg.svd(A, full_matrices=False)[2][:, -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            points[group] = X[:, :3] / X[:, 3:]
    degenerate = np.flatnonzero(~np.isfinite(points).all(axis=1))
    lo = np.minimum.reduceat(centers, starts, axis=0) - half
    hi = np.maximum.reduceat(centers, starts, axis=0) + half
    points = np.clip(points, lo, hi)
    for k in degenerate:
        points[k] = centers[starts[k] : starts[k] + counts[k]].mean(axis=0)
    return points


def _subdivide(centers: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The eight children of each parent cube of edge lengths edges, in (corner, parent) order."""
    offs = _CORNER_SIGNS * (edges / 4.0)
    return (centers[None, :, :] + offs[:, None, :]).reshape(-1, 3)


def _by_joint(centers: np.ndarray, jid: np.ndarray) -> np.ndarray:
    """Row order that groups rows by joint, canonical (x, y, z) order within each."""
    return np.lexsort((centers[:, 2], centers[:, 1], centers[:, 0], jid))


def _cap_frontier(centers: np.ndarray, jid: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Runaway guard: keep each joint's first `limit` cubes in canonical order."""
    counts = np.bincount(jid)
    order = _by_joint(centers, jid)
    centers, jid = centers[order], jid[order]
    rank = np.arange(jid.size) - np.repeat(np.cumsum(counts) - counts, counts)
    keep = rank < limit
    return centers[keep], jid[keep]


def estimate_skeleton(frame: JointObservationFrame, cameras: list[CameraParams], config: EstimatorConfig) -> Skeleton3D:
    """Estimate the skeleton of one frame; see estimate_skeletons."""
    return estimate_skeletons([frame], cameras, config)[0]


def estimate_skeletons(
    frames: list[JointObservationFrame], cameras: list[CameraParams], config: EstimatorConfig
) -> list[Skeleton3D]:
    """Estimate every detected joint of every frame in one search, then synthesize each root.

    Row f * J + j of the search is detected joint j of frames[f]. The pelvis
    root, which 2D detection does not produce, is the midpoint of the two
    hip estimates, or no_consensus when either hip is missing. Raises
    KeyError when a frame lists a view that is not calibrated.
    """
    view_ids, K, R, t = stack_cameras(cameras)
    column = {v: i for i, v in enumerate(view_ids)}
    n = len(DETECTED_JOINTS)
    table = np.full((len(frames), n, len(view_ids), 3), np.nan)
    for f, frame in enumerate(frames):
        table[f][:, [column[v] for v in frame.view_ids]] = frame.table.transpose(1, 0, 2)
    found = _search(table.reshape(-1, len(view_ids), 3), K, R, t, config)
    points = np.full((len(frames), len(JOINT_NAMES), 3), np.nan)
    points[found.ok // n, found.ok % n] = found.positions  # detected joint j is row j
    points[:, ROOT_JOINT] = 0.5 * (points[:, 8] + points[:, 11])  # the hips' midpoint, NaN unless both are ok
    return [Skeleton3D(frame.frame, p) for frame, p in zip(frames, points)]
