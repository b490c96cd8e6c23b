"""Estimator properties on random camera rigs.

Every other estimator test runs `synth.camera_ring()`: five cameras 3 m
out, f = 1000 px, all with the default volume wholly in front of them.
Here Hypothesis draws rigs of 2-8 cameras 1.5-7 m from the volume's
center, some inside the volume, each aimed near the center, with f
500-3000 px, a principal point, an aspect ratio and a skew, and ids in any
order; sigma in [2, min(V, 5)] and delta in {5, 10, 30} mm; points in the
volume, seen noiselessly or with up to 2 px of error per coordinate. The
properties:
- the shared search gives each joint, bit for bit, the result of its own
  search (`oracles.estimate_joint_alone`);
- results do not depend on the order in which the cameras or a frame's
  views are listed, nor on which frames share a search;
- every `ok` position is finite and inside the volume;
- a noiseless point that sigma cameras see in front reaches consensus
  within the terminal half-diagonal.

Rigs with two camera centers closer than 10 mm are not drawn. The last
property also needs the rays to the point to span an angle of at least
one degree: where they do not, the triangulation is ill-conditioned and
its position along the rays is not pinned down, as for two cameras
facing each other across the point.
"""

import itertools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import estimate_fields, estimate_frames, estimate_joint_alone

from mvmocap.geometry import CameraParams, project
from mvmocap.skeleton import DETECTED_JOINTS, STATUS_OK
from mvmocap.voxel import EstimatorConfig, JointObservationFrame, estimate_joints

VOLUME = EstimatorConfig().initial_volume
HALF = np.asarray(VOLUME.edges) / 2.0


def unit(v):
    return v / np.linalg.norm(v)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _look_at(center, target) -> np.ndarray:
    """World-to-camera rotation of a camera at center whose optical axis points at target."""
    z = unit(target - center)
    x = unit(np.cross(z, [0.0, 1.0, 0.0] if abs(z[1]) < 0.9 else [1.0, 0.0, 0.0]))
    return np.stack([x, np.cross(z, x), z])


@st.composite
def cameras(draw, camera_id):
    direction = np.array(draw(st.tuples(*[_floats(-1.0, 1.0)] * 3)))
    assume(np.linalg.norm(direction) > 0.1)
    center = VOLUME.center + draw(_floats(1500.0, 7000.0)) * unit(direction)
    target = VOLUME.center + np.array(draw(st.tuples(*[_floats(-500.0, 500.0)] * 3)))  # look-at jitter
    f = draw(_floats(500.0, 3000.0))
    K = np.array([
        [f, draw(_floats(-2.0, 2.0)), draw(_floats(0.0, 2000.0))],
        [0.0, f * draw(_floats(0.95, 1.05)), draw(_floats(0.0, 2000.0))],
        [0.0, 0.0, 1.0],
    ])
    R = _look_at(center, target)
    return CameraParams(id=camera_id, intrinsic=K, rotation=R, translation=-R @ center, resolution=(1920, 1080))


@st.composite
def rigs(draw):
    """(cameras as listed, config): V cameras under distinct ids in any order, sigma and delta."""
    n_views = draw(st.integers(2, 8))
    ids = draw(st.lists(st.integers(0, 999), min_size=n_views, max_size=n_views, unique=True))
    rig = [draw(cameras(i)) for i in ids]
    centers = [-c.rotation.T @ c.translation for c in rig]
    assume(all(np.linalg.norm(a - b) >= 10.0 for a, b in itertools.combinations(centers, 2)))
    sigma = draw(st.integers(2, min(n_views, 5)))
    delta = draw(st.sampled_from([5.0, 10.0, 30.0]))
    return rig, EstimatorConfig(sigma=sigma, delta=(delta, delta, delta))


def points():
    """(N, 3) points inside the volume, 1 <= N <= 3."""
    point = st.tuples(*[_floats(-h, h) for h in HALF]).map(lambda p: VOLUME.center + np.array(p))
    return st.lists(point, min_size=1, max_size=3).map(np.array)


def observe(pts, cams, errors=None) -> np.ndarray:
    """(N, V, 3) detections of pts in cams, in the order given: NaN where a point is not in front of a camera."""
    pixels = np.stack([project(pts, c) for c in cams], axis=1)
    if errors is not None:
        pixels = pixels + errors
    table = np.concatenate([pixels, np.ones(pixels.shape[:2] + (1,))], axis=2)
    table[np.isnan(pixels).any(axis=2)] = np.nan
    return table


@st.composite
def scenes(draw, noisy=True):
    """(cameras as listed, config, points, (N, V, 3) table with columns in ascending camera id)."""
    rig, config = draw(rigs())
    pts = draw(points())
    by_id = sorted(rig, key=lambda c: c.id)
    errors = None
    if noisy and draw(st.booleans()):  # up to 2 px per pixel coordinate
        n = len(pts) * len(rig) * 2
        errors = np.array(draw(st.lists(_floats(-2.0, 2.0), min_size=n, max_size=n))).reshape(len(pts), len(rig), 2)
    return rig, config, pts, observe(pts, by_id, errors)


@settings(max_examples=40, deadline=None)
@given(scene=scenes())
def test_shared_search_matches_per_joint_search_and_stays_in_volume(scene):
    rig, config, _, table = scene
    got = estimate_joints(table, rig, config)
    assert [estimate_fields(e) for e in got] == [estimate_fields(estimate_joint_alone(row, rig, config)) for row in table]
    for est in got:
        if est.status == STATUS_OK:
            assert np.isfinite(est.position).all()
            assert (np.abs(est.position - VOLUME.center) <= HALF).all()


@settings(max_examples=25, deadline=None)
@given(scene=scenes(), data=st.data())
def test_results_do_not_depend_on_camera_order_or_chunk(scene, data):
    """Frames of up to three observed joints each, searched together, one by
    one and split in two, with the cameras and each frame's views listed in
    drawn orders, give the same skeletons bit for bit."""
    rig, config, _, table = scene
    n_frames = data.draw(st.integers(2, 3))
    frames = []
    for f in range(n_frames):
        cells = np.full((len(DETECTED_JOINTS), len(rig), 3), np.nan)
        joints = data.draw(st.lists(st.integers(0, len(DETECTED_JOINTS) - 1), min_size=1, max_size=3, unique=True))
        cells[joints] = table[np.arange(len(joints)) % len(table)]
        rows = data.draw(st.permutations(range(len(rig))))
        view_ids = sorted(c.id for c in rig)
        frames.append(JointObservationFrame(f, [view_ids[r] for r in rows], cells.transpose(1, 0, 2)[list(rows)]))
    want = [s.positions.tobytes() for s in estimate_frames(frames, rig, config)]
    shuffled = data.draw(st.permutations(rig))
    split = data.draw(st.integers(1, n_frames - 1))
    for chunks in ([[f] for f in frames], [frames[:split], frames[split:]]):
        got = [s.positions.tobytes() for chunk in chunks for s in estimate_frames(chunk, shuffled, config)]
        assert got == want


def _ray_angle_deg(point, cams) -> float:
    """The largest angle, 0-90 degrees, between the lines from cams' centers to point."""
    rays = [unit(point + c.rotation.T @ c.translation) for c in cams]
    return max(np.degrees(np.arccos(min(abs(a @ b), 1.0))) for a, b in itertools.combinations(rays, 2))


@settings(max_examples=40, deadline=None)
@given(scene=scenes(noisy=False))
def test_noiseless_point_seen_by_sigma_cameras_is_found(scene):
    rig, config, pts, table = scene
    by_id = sorted(rig, key=lambda c: c.id)
    seen = ~np.isnan(table[:, :, 2])
    assume(seen.sum(axis=1).max() >= config.sigma)
    for p, est, row in zip(pts, estimate_joints(table, rig, config), seen):
        if row.sum() < config.sigma or _ray_angle_deg(p, [c for c, s in zip(by_id, row) if s]) < 1.0:
            continue
        assert est.status == STATUS_OK
        assert np.linalg.norm(est.position - p) <= np.linalg.norm(est.terminal_edges) / 2.0
