"""Rotation construction tests: action oracles, forward-kinematics round
trips, spin injection/recovery, and equivalence with the class-frame
chain in tests/oracles.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from oracles import (
    DegenerateParallel,
    OverflowingBone,
    bone_vector,
    class_frame_retarget,
    frame_from_bone,
    is_rotation,
    joint_statuses,
    retarget_frame_alone,
    rotations_per_bone,
    spin_correct,
)

from mvmocap import retarget
from mvmocap.retarget import (
    STATUS_FELL_BACK,
    STATUS_OK,
    retarget_frame,
    retarget_sequence,
)
from mvmocap.skeleton import BONES, FRAME_ROTATION, JOINT_NAMES, T_POSE, Skeleton3D, rotation_about_axis
from mvmocap.synth import generate_scene, render_observations
from mvmocap.voxel import EstimatorConfig, estimate_skeleton

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def unit(v):
    return v / np.linalg.norm(v)


def random_unit(rng):
    return unit(rng.normal(size=3))


# -- frame_from_bone ------------------------------------------------------------


def test_aligned_bone_gives_identity():
    R = frame_from_bone(X, X, secondary=Y)
    assert np.allclose(R, np.eye(3), atol=1e-12)


def test_antiparallel_bone_raises():
    with pytest.raises(DegenerateParallel):
        frame_from_bone(-X, X)


def test_antiparallel_with_secondary_is_half_turn():
    R = frame_from_bone(-X, X, secondary=Y)
    assert np.allclose(R, rotation_about_axis(Y, np.pi), atol=1e-12)


def test_frame_action_and_orthonormality(rng):
    for _ in range(300):
        a, b = random_unit(rng), random_unit(rng)
        if np.linalg.norm(np.cross(a, b)) < 1e-5:
            continue
        R = frame_from_bone(a, b)
        assert np.allclose(R @ b, a, atol=1e-9)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


# -- accumulated rotations -------------------------------------------------------


def test_tpose_accumulates_identity():
    skel = Skeleton3D(0, T_POSE)
    ts = retarget_frame(skel)
    assert set(ts.statuses.values()) == {STATUS_OK}
    for name in ts.transforms:
        assert np.allclose(ts.rotation(name), np.eye(3), atol=1e-9), name


def test_bent_elbow_is_pure_z_rotation():
    positions = dict(enumerate(T_POSE))
    # Bend the left elbow 90 degrees about template z: hand moves straight up.
    positions[7] = positions[6] + np.array([0.0, 260.0, 0.0])
    skel = Skeleton3D(0, positions)
    ts = retarget_frame(skel)
    # The left frame class is the identity, so global rotations are the local ones.
    assert np.allclose(ts.rotation("l_upper_arm"), np.eye(3), atol=1e-9)
    assert np.allclose(ts.rotation("l_lower_arm"), rotation_about_axis(Z, np.pi / 2), atol=1e-9)


def test_chain_fk_reproduces_bone_directions():
    for preset in ("walk", "wave", "squat"):
        scene = generate_scene(preset, frames=8, seed=13)
        for skel in scene.truth:
            ts = retarget_frame(skel)
            for bone in BONES:
                assert ts.statuses[bone.name] == STATUS_OK
                fk = ts.rotation(bone.name) @ FRAME_ROTATION[bone.frame_class][:, 0]
                assert np.allclose(fk, bone_vector(skel, bone.name), atol=1e-6)


# -- spin_correct ----------------------------------------------------------------


def spin_free_frame(x_axis, parent):
    n = unit(np.cross(x_axis, parent[:, 1]))
    y = np.cross(n, x_axis)
    return np.column_stack([x_axis, y, np.cross(x_axis, y)])


def test_spin_free_rotation_unchanged(rng):
    for _ in range(50):
        x = random_unit(rng)
        parent = frame_from_bone(random_unit(rng), X, secondary=Y)
        if np.linalg.norm(np.cross(x, parent[:, 1])) < 1e-3:
            continue
        M = spin_free_frame(x, parent)
        assert np.allclose(spin_correct(M, parent), M, atol=1e-9)


def test_known_roll_is_removed():
    parent = np.eye(3)
    x = unit(np.array([1.0, 0.3, -0.5]))
    M = spin_free_frame(x, parent)
    spun = rotation_about_axis(x, np.deg2rad(37.0)) @ M
    recovered = spin_correct(spun, parent)
    assert np.linalg.norm(recovered - M) < 1e-7


def test_bone_axis_is_fixed_point(rng):
    for _ in range(100):
        x = random_unit(rng)
        M = frame_from_bone(x, X, secondary=Y)
        parent = frame_from_bone(random_unit(rng), X, secondary=Y)
        corrected = spin_correct(M, parent)
        assert np.array_equal(corrected[:, 0], M[:, 0])


def test_degenerate_reference_plane_returns_input():
    # Bone pointing along the parent's y-axis: no reference plane exists.
    M = frame_from_bone(Y, X)
    assert spin_correct(M, np.eye(3)) is M


# -- retarget_frame -----------------------------------------------------------------


def test_tpose_transforms_are_identity():
    skel = Skeleton3D(0, T_POSE)
    ts = retarget_frame(skel)
    for name, T in ts.transforms.items():
        assert np.allclose(T[:3, :3], np.eye(3), atol=1e-9), name
        assert np.array_equal(T[:3, 3], np.zeros(3))
        assert np.array_equal(T[3], [0.0, 0.0, 0.0, 1.0])


def test_fk_round_trip_on_animated_skeletons():
    scene = generate_scene("walk", frames=10, seed=21)
    for skel in scene.truth:
        ts = retarget_frame(skel)
        for bone in BONES:
            fk = ts.rotation(bone.name) @ FRAME_ROTATION[bone.frame_class][:, 0]
            assert np.allclose(fk, bone_vector(skel, bone.name), atol=1e-6)
            assert is_rotation(ts.rotation(bone.name), tol=1e-9)


def test_missing_hands_only_affect_lower_arms():
    scene = generate_scene("wave", frames=3, seed=31)
    skel = scene.truth[2]
    full = retarget_frame(skel)

    reduced = _without(skel, (4, 7), skel.frame)
    ablated = retarget_frame(reduced)

    for name in ("r_lower_arm", "l_lower_arm"):
        assert ablated.statuses[name] == STATUS_FELL_BACK
        assert np.allclose(ablated.rotation(name), np.eye(3), atol=1e-12)
    for name in set(full.transforms) - {"r_lower_arm", "l_lower_arm"}:
        assert ablated.statuses[name] == STATUS_OK
        assert np.allclose(ablated.transforms[name], full.transforms[name], atol=1e-9)


def test_sequence_holds_previous_rotation_for_missing_bones():
    scene = generate_scene("walk", frames=2, seed=41)
    first, second = scene.truth
    reduced = _without(second, (7,), second.frame)
    sets = list(retarget_sequence([first, reduced]))
    assert sets[1].statuses["l_lower_arm"] == STATUS_FELL_BACK
    assert np.allclose(sets[1].rotation("l_lower_arm"), sets[0].rotation("l_lower_arm"), atol=1e-12)
    assert sets[1].statuses["l_upper_arm"] == STATUS_OK


def test_spin_free_invariant_on_animated_poses():
    """Corrected frames keep their y-axis in the plane of the bone axis and
    the parent frame's y-axis, wherever that plane is defined."""
    scene = generate_scene("squat", frames=6, seed=51)
    for skel in scene.truth:
        ts = retarget_frame(skel)
        for bone in BONES:
            rc = FRAME_ROTATION[bone.frame_class]
            acc = rc.T @ ts.rotation(bone.name) @ rc
            if bone.parent_bone is None:
                parent_local = np.eye(3)
            else:
                g_parent = ts.rotation(bone.parent_bone)
                parent_local = rc.T @ g_parent @ rc
            n = np.cross(acc[:, 0], parent_local[:, 1])
            norm = np.linalg.norm(n)
            if norm < 1e-6:
                continue
            assert abs(np.dot(acc[:, 1], n / norm)) < 1e-6


# -- equivalence with the class-frame chain -------------------------------------------


def _assert_matches_class_frame_chain(skeletons):
    skeletons = list(skeletons)
    sets = list(retarget_sequence(skeletons))
    for ts, (rotations, statuses) in zip(sets, class_frame_retarget(skeletons), strict=True):
        assert ts.statuses == statuses
        for name, rot in rotations.items():
            assert np.max(np.abs(ts.rotation(name) - rot)) <= 1e-12, (ts.frame, name)


def _left_hand_moved(offset):
    positions = dict(enumerate(T_POSE))
    positions[7] = positions[6] + np.array(offset)
    return Skeleton3D(0, positions)


def test_matches_class_frame_chain_on_truth():
    for preset in ("walk", "wave", "squat"):
        _assert_matches_class_frame_chain(generate_scene(preset, frames=40, seed=61).truth)
    # The left lower arm's carried frame is the identity, so a hand straight
    # up (bent elbow) or straight down from the elbow makes the bone parallel
    # or antiparallel to its y-axis: both signs of the degenerate branch.
    for offset in ([0.0, 260.0, 0.0], [0.0, -260.0, 0.0]):
        skeleton = _left_hand_moved(offset)
        _assert_matches_class_frame_chain([skeleton])
        rot = retarget_frame(skeleton).rotation("l_lower_arm")
        assert is_rotation(rot, tol=1e-12)


def test_matches_class_frame_chain_on_noisy_reconstruction(ring):
    scene = generate_scene("walk", frames=30, noise_px=1.0, dropout=0.05, seed=62)
    config = EstimatorConfig(delta=(20.0, 20.0, 20.0))
    skeletons = [estimate_skeleton(f, ring, config) for f in render_observations(scene)]
    assert any(s != STATUS_OK for skel in skeletons for s in joint_statuses(skel).values())
    _assert_matches_class_frame_chain(skeletons)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_matches_class_frame_chain_on_random_gappy_skeletons(rng):
    joint_ids = sorted(JOINT_NAMES)
    skeletons = []
    for f in range(300):
        positions = {i: rng.uniform(-800, 800, size=3) for i in joint_ids if rng.random() > 0.15}
        if rng.random() < 0.2 and 1 in positions and 0 in positions:
            positions[0] = positions[1].copy()  # zero-length head bone
        skeletons.append(Skeleton3D(f, positions))
    _assert_matches_class_frame_chain(skeletons)


# -- chunked stacks against the per-frame loop -----------------------------------------


def _without(skeleton, joints, frame):
    positions = skeleton.positions.copy()
    positions[list(joints)] = np.nan
    return Skeleton3D(frame, positions)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_chunks_match_per_frame_loop(monkeypatch):
    """Chunks of 4 frames: holds at the stream start, across a chunk boundary
    and through a whole chunk, a zero-length bone and both parallel branches."""
    monkeypatch.setattr(retarget, "CHUNK_FRAMES", 4)
    truth = generate_scene("wave", frames=14, seed=71).truth
    missing = {0: (14, 7), 1: (14, 7), 3: (3,), 4: (3,), 5: (3,)}  # torso and l_lower_arm, then r_elbow
    for f in range(7, 13):
        missing[f] = missing.get(f, ()) + (10,)  # r_lower_leg through all of frames 8-11
    skeletons = [_without(skel, missing.get(f, ()), f) for f, skel in enumerate(truth)]
    skeletons[9].positions[0] = skeletons[9].positions[1].copy()  # zero-length head
    skeletons[6] = _left_hand_moved([0.0, 260.0, 0.0])
    skeletons[13] = _left_hand_moved([0.0, -260.0, 0.0])
    skeletons[6].frame, skeletons[13].frame = 6, 13

    sets = list(retarget_sequence(skeletons))
    previous = None
    for ts, skel in zip(sets, skeletons, strict=True):
        expected = retarget_frame_alone(skel, previous)
        assert ts.frame == expected.frame and ts.statuses == expected.statuses
        for name, T in expected.transforms.items():
            assert np.max(np.abs(ts.transforms[name] - T)) <= 1e-12, (ts.frame, name)
        previous = expected

    fell_back = lambda f, name: sets[f].statuses[name] == STATUS_FELL_BACK
    assert fell_back(0, "torso") and fell_back(1, "l_lower_arm") and fell_back(4, "r_upper_arm")
    assert fell_back(9, "head") and all(fell_back(f, "r_lower_leg") for f in range(8, 12))
    assert np.array_equal(sets[1].rotation("torso"), np.eye(3))
    assert np.array_equal(sets[5].rotation("r_lower_arm"), sets[2].rotation("r_lower_arm"))
    assert np.array_equal(sets[11].rotation("r_lower_leg"), sets[6].rotation("r_lower_leg"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_bone_falls_back_like_per_frame_loop():
    """Finite endpoints whose distance overflows to inf give no direction: the
    bone holds, as bone_vector's OverflowingBone does in the per-frame loop."""
    truth = generate_scene("walk", frames=6, seed=72).truth
    for f in (1, 2, 4):
        truth[f].positions[0, 0], truth[f].positions[1, 0] = 1e308, -1e308  # head bone length inf
    with pytest.raises(OverflowingBone), np.errstate(over="ignore"):  # the oracle's own overflow
        bone_vector(truth[1], "head")
    sets = list(retarget_sequence(truth))
    previous = None
    for ts, skel in zip(sets, truth, strict=True):
        with np.errstate(over="ignore"):
            expected = retarget_frame_alone(skel, previous)
        assert ts.statuses == expected.statuses
        for name, T in expected.transforms.items():
            assert np.max(np.abs(ts.transforms[name] - T)) <= 1e-12, (ts.frame, name)
        assert all(np.isfinite(T).all() for T in ts.transforms.values())
        previous = expected
    assert [ts.statuses["head"] for ts in sets] == [STATUS_OK, STATUS_FELL_BACK, STATUS_FELL_BACK, STATUS_OK,
                                                   STATUS_FELL_BACK, STATUS_OK]
    assert np.array_equal(sets[2].rotation("head"), sets[0].rotation("head"))


# -- the per-depth chain against the per-bone chain, bit for bit -------------------------


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    nan_rate=st.sampled_from([0.0, 0.1, 0.4]),
    zero_length=st.booleans(),
    overflow=st.booleans(),
    arm=st.sampled_from([None, "r_lower_arm", "l_lower_arm"]),
    sign=st.sampled_from([1.0, -1.0]),
    random_held=st.booleans(),
)
def test_depth_chain_is_the_per_bone_chain_bit_for_bit(n, seed, nan_rate, zero_length, overflow, arm, sign, random_held):
    """anim.jsonl's bytes need the rotations and ok flags exactly, on NaN joints,
    zero-length bones, lengths that overflow, the parallel branch and any held stack."""
    rng = np.random.default_rng(seed)
    points = T_POSE + rng.normal(scale=150.0, size=(n, 15, 3))
    points[rng.random((n, 15)) < nan_rate] = np.nan
    edited = rng.random(n) < 0.5  # the frames each edit below applies to
    if zero_length:
        bone = BONES[rng.integers(len(BONES))]
        points[edited, bone.child_joint] = points[edited, bone.parent_joint]
    if overflow:  # finite endpoints at +-1e308, whose bones' lengths overflow to inf
        points[edited, rng.integers(15)] = rng.choice([1e308, -1e308], size=(edited.sum(), 3))
    held = np.broadcast_to(np.eye(3), (len(BONES), 3, 3))
    if random_held:
        held = Rotation.random(len(BONES), random_state=rng).as_matrix()
    if arm is not None:
        # The lower arm along plus or minus its carried y-axis: the parallel branch of _posed_frame.
        b = retarget._NAMES.index(arm)
        rot, _ = rotations_per_bone(points, held)
        y = (rot[:, retarget._PARENT[b]] @ FRAME_ROTATION[BONES[b].frame_class])[:, :, 1]
        points[edited, BONES[b].child_joint] = points[edited, BONES[b].parent_joint] + sign * 260.0 * y[edited]

    expected_rot, expected_ok = rotations_per_bone(points, held)
    rot, ok = retarget._rotations(points, held)
    assert np.array_equal(ok, expected_ok)
    assert np.array_equal(rot, expected_rot)
