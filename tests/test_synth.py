import numpy as np
import pytest
from oracles import RankDeficient, dlt_triangulate, ok_joints

from mvmocap.geometry import project
from mvmocap.io import keypoint_line
from mvmocap.skeleton import ROOT_JOINT, tpose_positions
from mvmocap.synth import UnknownPreset, camera_ring, generate_scene, render_observations


def test_unknown_preset_rejected():
    with pytest.raises(UnknownPreset):
        generate_scene("moonwalk", frames=1)


def test_tpose_preset_matches_template():
    scene = generate_scene("tpose-static", frames=1, noise_px=0.0, dropout=0.0, seed=0)
    template = tpose_positions(1700.0)
    truth = scene.truth[0]
    assert ok_joints(truth) == set(template)
    for idx, p in template.items():
        assert np.allclose(truth.positions[idx], p, atol=1e-12)


def test_same_seed_gives_identical_scenes():
    a = generate_scene("walk", frames=5, noise_px=1.5, dropout=0.2, seed=77)
    b = generate_scene("walk", frames=5, noise_px=1.5, dropout=0.2, seed=77)
    lines_a = [keypoint_line(f) for f in render_observations(a)]
    lines_b = [keypoint_line(f) for f in render_observations(b)]
    assert lines_a == lines_b


def test_bone_lengths_constant_across_frames(topology):
    for preset in ("walk", "wave", "squat"):
        scene = generate_scene(preset, frames=20, seed=9)
        reference = None
        for skel in scene.truth:
            lengths = {
                b.name: np.linalg.norm(skel.positions[b.child_joint] - skel.positions[b.parent_joint])
                for b in topology.bones
            }
            if reference is None:
                reference = lengths
            else:
                for name, value in lengths.items():
                    assert value == pytest.approx(reference[name], abs=1e-9), (preset, name)


def test_truth_visible_and_inside_default_volume():
    for preset in ("walk", "wave", "squat", "tpose-static"):
        scene = generate_scene(preset, frames=15, seed=10)
        for skel in scene.truth:
            for p in skel.positions:
                assert np.all(np.abs(p) <= [2000.0, 1500.0, 2000.0])
                for cam in scene.cameras:
                    assert (cam.rotation @ p + cam.translation)[2] > 0.0


def test_noiseless_observations_are_exact_projections():
    scene = generate_scene("walk", frames=2, noise_px=0.0, dropout=0.0, seed=11)
    frames = render_observations(scene)
    for skel, frame in zip(scene.truth, frames):
        assert frame.view_ids == [cam.id for cam in scene.cameras]
        for cam, rows in zip(scene.cameras, frame.table):
            assert ok_joints(skel) - {ROOT_JOINT} == set(range(rows.shape[0]))
            for idx, (u, v, c) in enumerate(rows):
                assert c == 1.0
                assert np.allclose([u, v], project(skel.positions[idx], cam), atol=1e-12)


def test_full_dropout_empties_every_view():
    scene = generate_scene("walk", frames=3, dropout=1.0, seed=12)
    for frame in render_observations(scene):
        assert frame.view_ids == [c.id for c in scene.cameras]
        assert np.isnan(frame.table).all()


def test_noise_standard_deviation_calibrated():
    scene = generate_scene("tpose-static", frames=150, noise_px=2.0, seed=13)
    frames = render_observations(scene)
    residuals = []
    for skel, frame in zip(scene.truth, frames):
        for cam, rows in zip(scene.cameras, frame.table):
            for idx, (u, v, _) in enumerate(rows):
                residuals.extend(np.array([u, v]) - project(skel.positions[idx], cam))
    residuals = np.asarray(residuals)
    assert residuals.size > 10_000
    assert np.std(residuals) == pytest.approx(2.0, rel=0.1)


# -- DLT oracle ------------------------------------------------------------------


def test_two_view_triangulation_is_exact():
    cams = camera_ring()[:2]
    point = np.array([150.0, -200.0, 400.0])
    pixels = np.array([project(point, c) for c in cams])
    assert np.allclose(dlt_triangulate(pixels, cams), point, atol=1e-6)


def test_single_view_is_rank_deficient():
    cams = camera_ring()[:1]
    with pytest.raises(RankDeficient):
        dlt_triangulate(np.array([[960.0, 540.0]]), cams)


def test_collinear_rays_are_rank_deficient():
    # Two cameras looking along the same axis at a point on that axis.
    K = np.array([[1000.0, 0, 960], [0, 1000.0, 540], [0, 0, 1.0]])
    from mvmocap.geometry import CameraParams

    cams = [
        CameraParams(id=0, intrinsic=K, rotation=np.eye(3), translation=np.array([0.0, 0.0, 3000.0]), resolution=(1920, 1080)),
        CameraParams(id=1, intrinsic=K, rotation=np.eye(3), translation=np.array([0.0, 0.0, 4000.0]), resolution=(1920, 1080)),
    ]
    point = np.array([0.0, 0.0, 500.0])
    pixels = np.array([project(point, c) for c in cams])
    with pytest.raises(RankDeficient):
        dlt_triangulate(pixels, cams)


def test_noisy_triangulation_residual_tracks_noise(rng):
    cams = camera_ring()
    noise = 2.0
    worst = 0.0
    for _ in range(50):
        point = rng.uniform(-600, 600, size=3)
        pixels = np.array([project(point, c) + rng.normal(0, noise, 2) for c in cams])
        x = dlt_triangulate(pixels, cams)
        reproj = [np.linalg.norm(project(x, c) - pixel) for c, pixel in zip(cams, pixels)]
        worst = max(worst, np.mean(reproj))
    assert worst <= noise * 4.0
