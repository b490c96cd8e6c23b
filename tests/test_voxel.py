"""Subdivision estimator tests against convex-hull, DLT and per-joint search oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    dlt_triangulate,
    estimate_joint_alone,
    hull_contains,
    joint_ok,
    joint_statuses,
    ok_joints,
    slab_votes,
    views_containing_stacked,
)

from mvmocap import voxel
from mvmocap.geometry import CameraParams, project
from mvmocap.skeleton import DETECTED_JOINTS, ROOT_JOINT, STATUS_NO_CONSENSUS, STATUS_OK
from mvmocap.synth import generate_scene, render_observations
from mvmocap.voxel import (
    Cube,
    EstimatorConfig,
    JointObservationFrame,
    _BOX_PAD,
    _CORNER_SIGNS,
    _subdivide,
    _views_containing,
    estimate_joint,
    estimate_joints,
    estimate_skeleton,
    estimate_skeletons,
)

HALF_DIAGONAL_10MM = np.sqrt(3) * 10.0 / 2.0  # 8.66 mm terminal bound


def observe_point(point, cameras, noise=0.0, rng=None, skip_views=()):
    """(V, 3) detection table of one point in cameras, which are in ascending id order."""
    table = np.full((len(cameras), 3), np.nan)
    for r, cam in enumerate(cameras):
        if cam.id in skip_views:
            continue
        pixel = project(point, cam)
        if noise > 0:
            pixel = pixel + rng.normal(0.0, noise, size=2)
        table[r] = (*pixel, 1.0)
    return table


def votes(cube, table, cameras) -> int:
    """Views whose detection falls inside the cube's projection, by the estimator's predicate."""
    return int(slab_votes(cube.center, cube.edges, cameras, table[:, :2]).sum())


def hull_votes(cube, table, cameras) -> int:
    return sum(hull_contains(cube, cam, row[:2]) for cam, row in zip(cameras, table) if not np.isnan(row[2]))


# -- votes ----------------------------------------------------------------------


def test_perfect_consensus_counts_all_views(ring):
    point = np.array([120.0, 250.0, -90.0])
    cube = Cube(center=point + 5.0, edges=(80.0, 80.0, 80.0))
    assert votes(cube, observe_point(point, ring), ring) == 5


def test_empty_observations_count_zero(ring, config):
    est = estimate_joint(np.full((len(ring), 3), np.nan), ring, config)
    assert est.status == STATUS_NO_CONSENSUS
    assert est.candidate_count == 0 and est.nodes_visited == 0


def test_low_confidence_observations_ignored(ring, config):
    obs = observe_point(np.array([0.0, 100.0, 0.0]), ring)
    assert estimate_joint(obs, ring, config).status == STATUS_OK
    weak = obs.copy()
    weak[:, 2] = 0.05
    est = estimate_joint(weak, ring, config)
    assert est.status == STATUS_NO_CONSENSUS
    assert est.nodes_visited == 0


@pytest.mark.parametrize("axis,value", [(0, np.inf), (1, np.inf), (0, -np.inf), (1, np.nan)])
@pytest.mark.parametrize("sigma", [2, 4])
def test_non_finite_pixel_gets_no_vote(ring, axis, value, sigma):
    """A view with a non-finite pixel counts as if it were absent."""
    point = np.array([120.0, 250.0, -90.0])
    absent = observe_point(point, ring, skip_views=(0,))
    corrupt = observe_point(point, ring)
    corrupt[0, axis] = value
    cfg = EstimatorConfig(sigma=sigma)
    for cube in (cfg.initial_volume, Cube(center=point + 5.0, edges=(80.0, 80.0, 80.0))):
        assert votes(cube, corrupt, ring) == votes(cube, absent, ring)
    want, got = estimate_joint(absent, ring, cfg), estimate_joint(corrupt, ring, cfg)
    assert got.status == want.status == STATUS_OK
    assert got.supporting_views == want.supporting_views == frozenset(range(1, 5))
    assert (got.candidate_count, got.nodes_visited) == (want.candidate_count, want.nodes_visited)
    assert np.array_equal(got.position, want.position)


def test_votes_match_hull_oracle(ring, rng):
    """Oracle: per-view convex hull of the projected vertices plus a half-plane test."""
    for _ in range(120):
        cube = Cube(center=rng.uniform(-800, 800, size=3), edges=tuple(rng.uniform(20, 500, size=3)))
        target = rng.uniform(-900, 900, size=3)
        obs = observe_point(target, ring, noise=rng.uniform(0, 40), rng=rng)
        assert votes(cube, obs, ring) == hull_votes(cube, obs, ring)


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_joints=st.integers(1, 3),
    n_boxes=st.integers(3, 30),
    kinds=st.lists(st.sampled_from("fff0p"), min_size=45, max_size=45),
    lost=st.lists(st.booleans(), min_size=15, max_size=15),
    split=st.booleans(),
)
def test_per_axis_slab_test_matches_stacked_oracle(ring, seed, n_joints, n_boxes, kinds, lost, split):
    """The vote matrix equals the (N, V, 3) slab test bit for bit, for boxes
    voted one per row (k = 1) and for the eight children of each parent
    voted from the parent's slabs (k = 2), which the oracle gets materialized
    by _subdivide.

    Per joint, view and axis a ray component is free (f), zero (0), or zero
    with its origin on a face plane of one box (p: 0/0 gives NaN); whole
    rays may be all NaN (lost), and one box (k = 1) or parent (k = 2) sits
    on a camera center, partly behind it.
    """
    rng = np.random.default_rng(seed)
    R = np.stack([c.rotation for c in ring])
    t = np.stack([c.translation for c in ring])
    n_views = len(ring)
    parent_edges = rng.uniform(2.0, 6000.0, size=3)
    edges = parent_edges / 2.0 if split else parent_edges  # of the voted boxes
    half = edges / 2.0
    padded = half + _BOX_PAD
    jid = np.concatenate([np.arange(n_joints), rng.integers(0, n_joints, size=n_boxes - n_joints)])
    parents = rng.uniform(-1500.0, 1500.0, size=(n_boxes, 3))
    cam_centers = -np.einsum("vji,vj->vi", R, t)
    parents[-1] = cam_centers[rng.integers(n_views)]
    origins = np.repeat(cam_centers[None], n_joints, axis=0)
    # Parent j is joint j's: each ray aims near it.
    directions = parents[:n_joints, None, :] + rng.uniform(-1.0, 1.0, size=(n_joints, n_views, 3)) * half - origins
    kinds = np.array(kinds).reshape(3, n_views, 3)[:n_joints]
    directions[kinds != "f"] = 0.0
    for j, v, a in zip(*np.nonzero(kinds == "p")):  # so that the origin's offset is exact
        if split:  # the upper child along a is centered on padded[a]: its face planes are 0 and 2 padded[a]
            parents[j, a] = padded[a] - half[a]
            origins[j, v, a] = rng.choice([0.0, 2.0]) * padded[a]
        else:
            parents[j, a] = 0.0
            origins[j, v, a] = rng.choice([-1.0, 1.0]) * padded[a]
    lost = np.array(lost).reshape(3, n_views)[:n_joints]
    origins[lost] = directions[lost] = np.nan

    centers, box_jid = (_subdivide(parents, parent_edges), np.tile(jid, 8)) if split else (parents, jid)
    want = views_containing_stacked(centers, box_jid, edges, R, t, origins, directions)
    axis_major = lambda rays: np.ascontiguousarray(rays.transpose(2, 1, 0))  # (J, V, 3) -> (3, V, J)
    got = _views_containing(centers, parents, jid, edges, R, t, axis_major(origins), axis_major(directions))
    assert got.dtype == want.dtype and np.array_equal(got, want.T)


# -- estimate_joint -------------------------------------------------------------


def test_noiseless_estimate_within_terminal_bound(ring, config, rng):
    for _ in range(20):
        point = rng.uniform(-600, 600, size=3)
        est = estimate_joint(observe_point(point, ring), ring, config)
        assert est.status == STATUS_OK
        assert est.candidate_count >= 1
        assert np.linalg.norm(est.position - point) <= HALF_DIAGONAL_10MM
        assert est.supporting_views == frozenset(range(5))


def test_single_view_no_consensus(ring, config):
    point = np.array([0.0, 200.0, 0.0])
    obs = observe_point(point, ring, skip_views=(1, 2, 3, 4))
    est = estimate_joint(obs, ring, config)
    assert est.status == STATUS_NO_CONSENSUS
    assert est.position is None


def test_noisy_estimate_tracks_dlt(ring, config, rng):
    """With pixel noise, consensus estimates stay near the DLT solution."""
    bound = 2.0 * max(config.delta)
    consensus = 0
    for _ in range(250):
        point = rng.uniform(-600, 600, size=3)
        obs = observe_point(point, ring, noise=2.0, rng=rng)
        est = estimate_joint(obs, ring, config)
        if est.status != STATUS_OK:
            continue
        consensus += 1
        assert np.linalg.norm(est.position - dlt_triangulate(obs[:, :2], ring)) <= bound
        half = np.asarray(est.terminal_edges) / 2.0
        assert np.all(est.position >= est.candidates.min(axis=0) - half)
        assert np.all(est.position <= est.candidates.max(axis=0) + half)
    # Consensus at this noise level is rare by design: tolerance to detector
    # error enters only through the terminal cube size.
    assert consensus >= 5


def test_least_squares_point_is_clamped_to_candidates():
    """A noisy walk joint whose least-squares point lies 1.9 mm outside the
    candidates' bounding box is placed on that box."""
    scene = generate_scene("walk", frames=11, noise_px=1.0, seed=11)
    obs = render_observations(scene)[10].table[:, 9]  # the views are in ascending id order
    est = estimate_joint(obs, scene.cameras, EstimatorConfig(delta=(20.0, 20.0, 20.0)))
    assert est.status == STATUS_OK
    half = np.asarray(est.terminal_edges) / 2.0
    lo, hi = est.candidates.min(axis=0) - half, est.candidates.max(axis=0) + half
    support = [r for r, cam in enumerate(scene.cameras) if cam.id in est.supporting_views]
    unclamped = dlt_triangulate(obs[support, :2], [scene.cameras[r] for r in support])
    assert np.any((unclamped < lo - 1.0) | (unclamped > hi + 1.0))
    assert np.all((est.position >= lo) & (est.position <= hi))
    assert np.allclose(est.position, np.clip(unclamped, lo, hi), atol=1e-6)


def test_pruning_soundness(ring, config, rng):
    """Every emitted candidate cube really has at least sigma votes."""
    point = rng.uniform(-500, 500, size=3)
    obs = observe_point(point, ring)
    est = estimate_joint(obs, ring, config)
    assert est.candidates is not None
    for center in est.candidates:
        cube = Cube(center=center, edges=est.terminal_edges)
        assert hull_votes(cube, obs, ring) >= config.sigma


def test_resolution_bound_on_candidates(ring, config, rng):
    """Noiseless candidates stay within one parent-cube half-diagonal."""
    for _ in range(10):
        point = rng.uniform(-600, 600, size=3)
        est = estimate_joint(observe_point(point, ring), ring, config)
        parent_half_diag = np.linalg.norm(2.0 * np.asarray(est.terminal_edges)) / 2.0
        for center in est.candidates:
            assert np.linalg.norm(center - point) <= parent_half_diag


def test_determinism_under_observation_order(ring, config, rng):
    """Neither the order of the calibration list nor the order in which a
    keypoint frame lists its views changes a result."""
    point = rng.uniform(-500, 500, size=3)
    obs = observe_point(point, ring, noise=1.0, rng=rng)
    est_a = estimate_joint(obs, ring, config)
    est_b = estimate_joint(obs, list(reversed(ring)), config)
    est_c = estimate_joint(obs, ring, config)
    assert np.array_equal(est_a.position, est_b.position)
    assert np.array_equal(est_a.position, est_c.position)
    assert est_a.supporting_views == est_b.supporting_views

    frame = render_observations(generate_scene("walk", frames=1, noise_px=1.0, seed=9))[0]
    flipped = JointObservationFrame(frame.frame, frame.view_ids[::-1], frame.table[::-1])
    a, b = (estimate_skeleton(f, ring, config) for f in (frame, flipped))
    assert joint_statuses(a) == joint_statuses(b)
    assert all(a.positions[i].tobytes() == b.positions[i].tobytes() for i in ok_joints(a))


_SIGMA_SCENE = None


def _sigma_scene():
    global _SIGMA_SCENE
    if _SIGMA_SCENE is None:
        scene = generate_scene("walk", frames=1, noise_px=3.0, seed=5)
        obs = render_observations(scene)[0].table[:, 4]
        _SIGMA_SCENE = (obs, scene.cameras)
    return _SIGMA_SCENE


@settings(deadline=None, max_examples=10)
@given(sigma=st.integers(min_value=2, max_value=5))
def test_raising_sigma_never_adds_candidates(sigma):
    obs, cameras = _sigma_scene()
    lo = estimate_joint(obs, cameras, EstimatorConfig(sigma=sigma))
    hi = estimate_joint(obs, cameras, EstimatorConfig(sigma=sigma + 1))
    assert hi.candidate_count <= lo.candidate_count


def test_node_count_decreases_as_delta_grows(ring, rng):
    point = rng.uniform(-400, 400, size=3)
    obs = observe_point(point, ring)
    volume = Cube(center=np.zeros(3), edges=(3000.0, 3000.0, 3000.0))
    nodes = []
    for d in (5.0, 10.0, 20.0, 30.0):
        est = estimate_joint(obs, ring, EstimatorConfig(delta=(d, d, d), initial_volume=volume))
        assert est.status == STATUS_OK
        nodes.append(est.nodes_visited)
    assert nodes == sorted(nodes, reverse=True)
    assert len(set(nodes)) == len(nodes)  # strictly decreasing


# -- shared frontier ---------------------------------------------------------------


def _fields(est):
    """Every JointEstimate field, arrays as bytes."""
    return (
        est.status,
        None if est.position is None else est.position.tobytes(),
        est.candidate_count,
        est.supporting_views,
        est.nodes_visited,
        None if est.candidates is None else est.candidates.tobytes(),
        est.terminal_edges,
    )


@pytest.mark.parametrize(
    "frames, noise, dropout, delta, max_candidates",
    [
        (6, 0.0, 0.0, 10.0, 100_000),
        (20, 1.0, 0.05, 20.0, 100_000),
        (6, 2.0, 0.0, 60.0, 100_000),
        (4, 2.0, 0.0, 60.0, 16),
    ],
    ids=["clean-d10", "1px-dropout-d20", "2px-d60", "2px-d60-capped"],
)
def test_shared_frontier_matches_per_joint_search(frames, noise, dropout, delta, max_candidates):
    """Each joint's result from the shared frontier is bit-identical to its own search."""
    scene = generate_scene("walk", frames=frames, noise_px=noise, dropout=dropout, seed=101)
    config = EstimatorConfig(delta=(delta, delta, delta), max_candidates=max_candidates)
    uncapped = EstimatorConfig(delta=config.delta)
    outcomes, cut = [], False
    for frame in render_observations(scene):
        tables = frame.table[:, DETECTED_JOINTS].transpose(1, 0, 2)  # (J, V, 3); the views are in ascending id order
        want = [estimate_joint_alone(table, scene.cameras, config) for table in tables]
        got = [_fields(e) for e in estimate_joints(tables, scene.cameras, config)]
        assert got == [_fields(e) for e in want]
        skel = estimate_skeleton(frame, scene.cameras, config)
        for idx, est in zip(DETECTED_JOINTS, want):
            assert joint_statuses(skel)[idx] == est.status
            assert est.position is None or skel.positions[idx].tobytes() == est.position.tobytes()
        outcomes += [(e.status, e.nodes_visited) for e in want]
        if max_candidates < uncapped.max_candidates:
            cut |= got != [_fields(e) for e in estimate_joints(tables, scene.cameras, uncapped)]
    assert any(s == STATUS_OK for s, _ in outcomes)
    if dropout:
        # Joints short-circuited for having fewer than sigma views, and
        # joints that lost consensus partway, are both covered.
        assert (STATUS_NO_CONSENSUS, 0) in outcomes
        assert any(s == STATUS_NO_CONSENSUS and n > 0 for s, n in outcomes)
    if max_candidates < uncapped.max_candidates:
        assert cut, "the per-joint cap never cut a frontier"


def test_capped_level_votes_only_the_trimmed_frontier(monkeypatch):
    """A level the runaway cap trims is voted one cube per row (k = 1), and the
    next, untrimmed level from its parents' slabs (k = 2). No vote covers
    more of a joint's cubes than the cap, and every joint gets the result of
    its own search."""
    scene = generate_scene("walk", frames=1, seed=101)
    tables = render_observations(scene)[0].table[:, DETECTED_JOINTS].transpose(1, 0, 2)
    config = EstimatorConfig(max_candidates=16)
    want = [_fields(estimate_joint_alone(table, scene.cameras, config)) for table in tables]

    calls = []
    vote = voxel._views_containing

    def counted(centers, parents, jid, *args):
        votes = vote(centers, parents, jid, *args)
        per_parent = centers.shape[0] // parents.shape[0]  # 1 or 8 boxes
        calls.append((per_parent, int(np.bincount(jid).max()) * per_parent))
        assert votes.shape == (len(scene.cameras), centers.shape[0])
        return votes

    monkeypatch.setattr(voxel, "_views_containing", counted)
    got = [_fields(e) for e in estimate_joints(tables, scene.cameras, config)]
    assert got == want
    assert max(rows for _, rows in calls) <= config.max_candidates
    per_parent = [k for k, _ in calls]
    assert per_parent[0] == 1  # the root
    assert any(a == 1 and b == 8 for a, b in zip(per_parent[1:], per_parent[2:])), per_parent


def test_degenerate_solve_falls_back_to_candidate_mean():
    """Parallel rays put the least-squares point at infinity; that joint is
    placed at its candidates' mean, as in its own search, while a joint in
    the same stack triangulates as usual."""
    K = np.array([[1000.0, 0.0, 960.0], [0.0, 1000.0, 540.0], [0.0, 0.0, 1.0]])
    cams = [
        CameraParams(id=i, intrinsic=K, rotation=np.eye(3), translation=np.array([-b, 0.0, 2500.0]), resolution=(1920, 1080))
        for i, b in enumerate((0.0, 1.0, 2.0))
    ]
    parallel = np.tile([960.0, 540.0, 1.0], (len(cams), 1))
    regular = observe_point(np.array([3.0, -2.0, 5.0]), cams)
    config = EstimatorConfig(sigma=2, initial_volume=Cube(center=np.zeros(3), edges=(400.0, 400.0, 400.0)))
    got = estimate_joints(np.stack([parallel, regular]), cams, config)
    want = [estimate_joint_alone(obs, cams, config) for obs in (parallel, regular)]
    assert [_fields(e) for e in got] == [_fields(e) for e in want]
    assert got[0].candidate_count > 1 and got[1].status == STATUS_OK
    assert np.array_equal(got[0].position, got[0].candidates.mean(axis=0))
    assert len(got[0].supporting_views) == len(got[1].supporting_views) == 3


def _skeleton_fields(skel):
    """Frame, statuses and the positions of the ok joints of a Skeleton3D in index order, arrays as bytes."""
    return skel.frame, list(joint_statuses(skel).items()), [(i, skel.positions[i].tobytes()) for i in sorted(ok_joints(skel))]


def test_chunk_matches_per_frame_estimates():
    """One search over a chunk of frames gives each frame the skeleton it gets alone."""
    scene = generate_scene("walk", frames=6, noise_px=1.0, dropout=0.05, seed=101)
    frames = render_observations(scene)
    config = EstimatorConfig(delta=(20.0, 20.0, 20.0), max_candidates=24)
    uncapped = EstimatorConfig(delta=config.delta)
    rng = np.random.default_rng(12)
    f = frames[1]  # four of the five views, listed in shuffled order
    rows = rng.permutation(len(f.view_ids))[:4]
    frames[1] = JointObservationFrame(f.frame, [f.view_ids[r] for r in rows], f.table[rows])
    f = frames[2]  # three views: every joint has fewer than sigma usable views
    frames[2] = JointObservationFrame(f.frame, f.view_ids[:3], f.table[:3])
    f = frames[3]  # each view's joints rolled by its row: the rays agree nowhere
    frames[3] = JointObservationFrame(f.frame, f.view_ids, np.stack([np.roll(t, r, axis=0) for r, t in enumerate(f.table)]))
    frames[4] = render_observations(generate_scene("walk", frames=6, seed=101))[4]  # noiseless: the cap cuts it

    got = estimate_skeletons(frames, scene.cameras, config)
    want = [estimate_skeleton(f, scene.cameras, config) for f in frames]
    assert [_skeleton_fields(s) for s in got] == [_skeleton_fields(s) for s in want]

    ok = [len(ok_joints(s)) for s in got]
    assert ok[2] == ok[3] == 0 and all(ok[i] > 0 for i in (0, 1, 4, 5))
    cut = [_skeleton_fields(s) != _skeleton_fields(estimate_skeleton(f, scene.cameras, uncapped))
           for f, s in zip(frames, got)]
    assert cut == [False, False, False, False, True, False]


# -- estimate_skeleton -----------------------------------------------------------


def test_full_noiseless_frame_reconstructs_all_joints(ring, config):
    scene = generate_scene("walk", frames=1, seed=2)
    frame = render_observations(scene)[0]
    skel = estimate_skeleton(frame, ring, config)
    truth = scene.truth[0]
    for idx in ok_joints(truth):
        assert joint_ok(skel, idx), idx
        assert np.linalg.norm(skel.positions[idx] - truth.positions[idx]) <= HALF_DIAGONAL_10MM


def test_missing_joint_is_isolated(ring, config):
    scene = generate_scene("tpose-static", frames=1, seed=3)
    frame = render_observations(scene)[0]
    dropped = 4  # right hand: a leaf joint
    frame.table[:, dropped] = np.nan
    skel = estimate_skeleton(frame, ring, config)
    assert joint_statuses(skel)[dropped] == STATUS_NO_CONSENSUS
    for idx in set(joint_statuses(skel)) - {dropped}:
        assert joint_ok(skel, idx)


def test_joint_visible_in_exactly_sigma_views_is_ok(ring, config):
    scene = generate_scene("tpose-static", frames=1, seed=4)
    frame = render_observations(scene)[0]
    target = 7  # left hand
    first = np.argsort(frame.view_ids)[0]  # the view with the lowest id sees it
    assert not np.isnan(frame.table[first, target]).any()
    frame.table[first, target] = np.nan
    assert np.count_nonzero(~np.isnan(frame.table[:, target, 2])) == config.sigma
    skel = estimate_skeleton(frame, ring, config)
    assert joint_ok(skel, target)


def test_missing_hip_blocks_root(ring, config):
    scene = generate_scene("tpose-static", frames=1, seed=6)
    frame = render_observations(scene)[0]
    frame.table[:, 8] = np.nan  # right hip gone everywhere
    skel = estimate_skeleton(frame, ring, config)
    assert joint_statuses(skel)[ROOT_JOINT] == STATUS_NO_CONSENSUS
    assert joint_statuses(skel)[8] == STATUS_NO_CONSENSUS


def test_root_is_hip_midpoint(ring, config):
    scene = generate_scene("walk", frames=1, seed=8)
    frame = render_observations(scene)[0]
    skel = estimate_skeleton(frame, ring, config)
    assert np.allclose(skel.positions[ROOT_JOINT], 0.5 * (skel.positions[8] + skel.positions[11]), atol=1e-12)


# -- configuration validation ------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(sigma=1)
    with pytest.raises(ValueError):
        EstimatorConfig(delta=(0.0, 10.0, 10.0))
    with pytest.raises(ValueError):
        EstimatorConfig(delta=(10.0, 10.0, 10.0), initial_volume=Cube(center=np.zeros(3), edges=(5.0, 100.0, 100.0)))
    with pytest.raises(ValueError):
        EstimatorConfig(min_confidence=1.5)
    with pytest.raises(ValueError):
        Cube(center=np.zeros(3), edges=(0.0, 1.0, 1.0))


def test_cube_children_halve_edges():
    """Subdivision yields the centers of the eight half-size cubes that tile the parent."""
    cube = Cube(center=np.array([10.0, 20.0, 30.0]), edges=(100.0, 80.0, 60.0))
    kids = _subdivide(cube.center[None, :], np.asarray(cube.edges))
    assert kids.shape == (8, 3)
    assert len({tuple(k) for k in kids}) == 8
    for k in kids:
        assert np.all(np.abs(k - cube.center) == [25.0, 20.0, 15.0])
    # Several parents: (corner, parent) order, corners in canonical order.
    parents = np.array([cube.center, -cube.center, 2.0 * cube.center])
    kids = _subdivide(parents, np.asarray(cube.edges)).reshape(8, 3, 3)
    assert np.array_equal(kids - parents, np.broadcast_to(_CORNER_SIGNS[:, None, :] * [25.0, 20.0, 15.0], kids.shape))
