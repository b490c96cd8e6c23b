"""Projection and cube-containment tests, each checked against an
independent oracle where the expected value is not obvious. Containment is
the estimator's ray-box predicate; its oracle is scipy's convex hull of the
projected cube vertices."""

import numpy as np
import pytest
from oracles import camera_arrays, cube_vertices, hull_contains, project_one, slab_votes
from scipy.spatial import ConvexHull as ScipyHull

from mvmocap.geometry import CameraParams, project, stack_cameras
from mvmocap.synth import generate_scene
from mvmocap.voxel import _BOX_PAD, Cube, _rays, _subdivide


def simple_camera(f=800.0, cx=640.0, cy=360.0):
    K = np.array([[f, 0, cx], [0, f, cy], [0, 0, 1.0]])
    return CameraParams(id=0, intrinsic=K, rotation=np.eye(3), translation=np.zeros(3), resolution=(1280, 720))


def random_camera(rng):
    # Random pose looking roughly back at the origin from ~3 m away.
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0, 2 * np.pi)
    c, s = np.cos(angle), np.sin(angle)
    skew = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    R = c * np.eye(3) + (1 - c) * np.outer(axis, axis) + s * skew
    t = np.array([rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(2500, 4000)])
    K = np.array([[rng.uniform(600, 1500), 0, 960], [0, rng.uniform(600, 1500), 540], [0, 0, 1.0]])
    return CameraParams(id=0, intrinsic=K, rotation=R, translation=t, resolution=(1920, 1080))


# -- project -----------------------------------------------------------------


def test_optical_axis_point_maps_to_principal_point():
    cam = simple_camera(f=500.0, cx=320.0, cy=240.0)
    uv = project(np.array([0.0, 0.0, 1000.0]), cam)
    assert np.allclose(uv, [320.0, 240.0], atol=1e-12)


def test_project_matches_per_point_oracle(rng):
    """project of (3,), (N, 3) and (N, M, 3) points equals the per-point
    oracle bit for bit, with a NaN row exactly where the depth is <= 0."""
    behind = 0
    for preset in ("walk", "wave", "squat"):
        scene = generate_scene(preset, frames=10, seed=3)
        truth = np.array([s.positions for s in scene.truth])  # (10, 15, 3)
        # Jitter on the scale of the 3 m ring radius puts some points behind each camera.
        points = np.concatenate([truth, truth + rng.normal(0.0, 3000.0, size=truth.shape)])
        for cam in scene.cameras:
            want = np.array([[project_one(p, cam) for p in row] for row in points])
            depth = np.array([[(cam.rotation @ p + cam.translation)[2] for p in row] for row in points])
            got = project(points, cam)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(project(points.reshape(-1, 3), cam), want.reshape(-1, 2), equal_nan=True)
            for p, w in zip(points.reshape(-1, 3), want.reshape(-1, 2)):
                assert np.array_equal(project(p, cam), w, equal_nan=True)
            assert np.array_equal(np.isnan(got), np.repeat((depth <= 0.0)[..., None], 2, axis=-1))
            behind += int(np.count_nonzero(depth <= 0.0))
    assert behind > 0
    # Exactly on the camera plane and behind it.
    assert np.isnan(project(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, -1.0]]), simple_camera())).all()


def test_one_stacked_call_matches_the_per_view_calls(rng):
    """project of (N, 15, 3) points against every camera stacked, ids in
    any order, equals one call per camera bit for bit, with NaN rows for NaN
    points and for points on or behind a camera."""
    scene = generate_scene("walk", frames=12, seed=5)
    truth = np.array([s.positions for s in scene.truth])
    points = np.concatenate([truth, truth + rng.normal(0.0, 3000.0, size=truth.shape)])  # (24, 15, 3)
    points[rng.random(points.shape[:2]) < 0.2] = np.nan
    cameras = [scene.cameras[i] for i in rng.permutation(len(scene.cameras))]
    views = stack_cameras(cameras, point_axes=1)
    assert views.ids == sorted(c.id for c in cameras)
    got = project(points[:, None], views)
    assert got.shape == (24, len(cameras), 15, 2)
    behind = 0
    for v, view_id in enumerate(views.ids):
        cam = next(c for c in cameras if c.id == view_id)
        assert np.array_equal(got[:, v], project(points, cam), equal_nan=True)
        for n in range(len(points)):
            assert np.array_equal(got[n, v], project(points[n], cam), equal_nan=True)
        depth = points @ cam.rotation[2] + cam.translation[2]
        behind += int(np.count_nonzero(depth <= 0.0))
    assert behind > 0 and np.isnan(points).any()


def test_project_matches_matrix_oracle(rng):
    for _ in range(100):
        cam = random_camera(rng)
        p = rng.uniform(-500, 500, size=3)
        # Independent oracle: 3x4 projection matrix multiply and divide.
        P = cam.intrinsic @ np.hstack([cam.rotation, cam.translation[:, None]])
        x = P @ np.append(p, 1.0)
        assert np.allclose(project(p, cam), x[:2] / x[2], atol=1e-9)


def test_backprojection_roundtrip(rng):
    """The viewing ray of a projected point passes through the point, at its camera depth."""
    for _ in range(100):
        cam = random_camera(rng)
        p = rng.uniform(-500, 500, size=3)
        depth = (cam.rotation @ p + cam.translation)[2]
        K, R, t = camera_arrays([cam])
        origins, directions = _rays(K, R, t, project(p, cam)[None, :])
        assert np.allclose(origins[0] + depth * directions[0], p, atol=1e-6)


# -- cube containment ------------------------------------------------------------


def test_fronto_parallel_cube_projects_to_square():
    cam = simple_camera()
    cube = Cube(center=np.array([0.0, 0.0, 2000.0]), edges=(300.0, 300.0, 300.0))
    pix = project(cube_vertices(cube), cam)
    hull = pix[ScipyHull(pix).vertices]
    assert hull.shape == (4, 2)
    # Symmetric about the principal point.
    assert np.allclose(hull.mean(axis=0), [640.0, 360.0], atol=1e-9)
    assert slab_votes(cube.center, cube.edges, [cam], [640.0, 360.0])[0]


def test_degenerate_cube_projects_to_point():
    """A zero-size box holds its own projection and nothing a thousandth of a pixel away."""
    cam = simple_camera()
    center = np.array([100.0, -50.0, 1500.0])
    pixel = project(center, cam)
    assert slab_votes(center, np.zeros(3), [cam], pixel)[0]
    assert not slab_votes(center, np.zeros(3), [cam], pixel + [1e-3, 0.0])[0]


def test_ray_in_a_face_plane_is_inside():
    """An axis-parallel ray lying exactly in a face plane of the padded box
    crosses that slab: the 0/0 of its slab bound must not reject it."""
    cam = simple_camera()  # camera center at the origin, principal ray along +z
    half = 150.0
    center = np.array([half + _BOX_PAD, 0.0, 2000.0])
    assert slab_votes(center, np.full(3, 2.0 * half), [cam], [640.0, 360.0])[0]
    assert not slab_votes(center + [1e-3, 0.0, 0.0], np.full(3, 2.0 * half), [cam], [640.0, 360.0])[0]


def test_ray_votes_only_in_front_of_camera():
    """A view votes for the cubes that its ray's segment in front of the
    camera crosses, also where the cube reaches behind the camera, and not
    for a cube that only the ray's line behind the camera meets."""
    cam = simple_camera()  # camera center at the origin, depth along +z
    cube = Cube(center=np.array([0.0, 0.0, 100.0]), edges=(500.0, 500.0, 500.0))
    verts = cube_vertices(cube)
    assert np.array_equal(np.isnan(project(verts, cam)).all(axis=1), verts[:, 2] < 0.0)
    assert slab_votes(cube.center, cube.edges, [cam], [640.0, 360.0])[0]  # the principal ray, from inside
    assert not slab_votes(cube.center - [0.0, 0.0, 400.0], cube.edges, [cam], [640.0, 360.0])[0]  # wholly behind
    # A box at x in [200, 400], z in [-250, 250]: the direction (1.2, 0, 1) crosses it at
    # depths 167-250, and meets its mirror image in x only behind the camera, at depths -250 to -167.
    side = np.array([300.0, 0.0, 0.0]), np.array([200.0, 500.0, 500.0])
    assert slab_votes(*side, [cam], [640.0 + 1.2 * 800.0, 360.0])[0]
    assert not slab_votes(side[0] * [-1.0, 1.0, 1.0], side[1], [cam], [640.0 + 1.2 * 800.0, 360.0])[0]


def test_subcube_region_inside_parent_region(rng):
    cam = simple_camera()
    cube = Cube(center=np.array([50.0, -80.0, 2500.0]), edges=(400.0, 300.0, 350.0))
    half = tuple(e / 2.0 for e in cube.edges)
    children = [Cube(c, half) for c in _subdivide(cube.center[None, :], np.asarray(cube.edges))]
    for pixel in rng.uniform([500.0, 200.0], [800.0, 500.0], size=(300, 2)):
        if any(slab_votes(child.center, child.edges, [cam], pixel)[0] for child in children):
            assert slab_votes(cube.center, cube.edges, [cam], pixel)[0]


def test_centroid_inside_far_point_outside():
    cam = simple_camera()
    cube = Cube(center=np.array([120.0, 40.0, 2200.0]), edges=(200.0, 160.0, 240.0))
    pix = project(cube_vertices(cube), cam)
    centroid = pix.mean(axis=0)
    assert slab_votes(cube.center, cube.edges, [cam], centroid)[0]
    diameter = 2 * np.max(np.linalg.norm(pix - centroid, axis=1))
    assert not slab_votes(cube.center, cube.edges, [cam], centroid + np.array([10 * diameter, 0.0]))[0]


def test_containment_matches_half_plane_oracle(rng):
    for _ in range(60):
        cam = random_camera(rng)
        cube = Cube(center=rng.uniform(-400, 400, size=3), edges=tuple(rng.uniform(50, 400, size=3)))
        pix = project(cube_vertices(cube), cam)
        lo, hi = pix.min(axis=0), pix.max(axis=0)
        for pixel in rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), size=(40, 2)):
            assert slab_votes(cube.center, cube.edges, [cam], pixel)[0] == hull_contains(cube, cam, pixel)


def test_boundary_points_are_inside(rng):
    """Hull vertices and hull-edge midpoints are inside; a step outward is not."""
    for _ in range(60):
        cam = random_camera(rng)
        cube = Cube(center=rng.uniform(-400, 400, size=3), edges=tuple(rng.uniform(50, 400, size=3)))
        pix = project(cube_vertices(cube), cam)
        hull = ScipyHull(pix)
        ring = pix[hull.vertices]
        for a, b in zip(ring, np.roll(ring, -1, axis=0)):
            assert slab_votes(cube.center, cube.edges, [cam], a)[0]
            assert slab_votes(cube.center, cube.edges, [cam], (a + b) / 2.0)[0]
        for (i, j), eq in zip(hull.simplices, hull.equations):
            assert not slab_votes(cube.center, cube.edges, [cam], (pix[i] + pix[j]) / 2.0 + 1e-3 * eq[:2])[0]


def test_segment_region_containment():
    """A box flat in two axes holds exactly its projected segment."""
    cam = simple_camera()
    center = np.array([0.0, 0.0, 2000.0])
    edges = np.array([300.0, 0.0, 0.0])
    mid = project(center, cam)
    assert slab_votes(center, edges, [cam], mid)[0]
    assert slab_votes(center, edges, [cam], project(center + [100.0, 0.0, 0.0], cam))[0]
    assert not slab_votes(center, edges, [cam], mid + [0.0, 1.0])[0]
    assert not slab_votes(center, edges, [cam], project(center + [200.0, 0.0, 0.0], cam))[0]


# -- validation ---------------------------------------------------------------


def test_camera_params_validation():
    K = np.array([[800.0, 0, 640], [0, 800.0, 360], [0, 0, 1.0]])
    with pytest.raises(ValueError):
        CameraParams(id=0, intrinsic=K, rotation=2 * np.eye(3), translation=np.zeros(3), resolution=(10, 10))
    with pytest.raises(ValueError):
        CameraParams(id=0, intrinsic=K, rotation=np.diag([1.0, 1.0, -1.0]), translation=np.zeros(3), resolution=(10, 10))
    # R R^T is off by 8e-6 on the diagonal, past the 1e-9 limit, though det R - 1 is only -1.6e-11.
    stretched = np.diag([1 + 4e-6, 1 - 4e-6, 1.0])
    with pytest.raises(ValueError, match="orthonormal"):
        CameraParams(id=0, intrinsic=K, rotation=stretched, translation=np.zeros(3), resolution=(10, 10))
    bad_k = K.copy()
    bad_k[2, 2] = 2.0
    with pytest.raises(ValueError):
        CameraParams(id=0, intrinsic=bad_k, rotation=np.eye(3), translation=np.zeros(3), resolution=(10, 10))
    with pytest.raises(ValueError):
        CameraParams(id=0, intrinsic=K, rotation=np.eye(3), translation=np.zeros(3), resolution=(0, 10))
