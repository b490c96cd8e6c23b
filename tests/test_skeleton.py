import numpy as np
import pytest

from oracles import MissingJoint, ZeroLengthBone, bone_vector

from mvmocap.skeleton import (
    BONES,
    DETECTED_JOINTS,
    FRAME_CLASSES,
    FRAME_ROTATION,
    JOINT_NAMES,
    ROOT_JOINT,
    T_POSE,
    Skeleton3D,
)

EXPECTED_BONES = {
    "head",
    "torso",
    "r_shoulder",
    "l_shoulder",
    "r_upper_arm",
    "l_upper_arm",
    "r_lower_arm",
    "l_lower_arm",
    "r_upper_leg",
    "l_upper_leg",
    "r_lower_leg",
    "l_lower_leg",
}


def test_topology_has_expected_joints_and_bones():
    assert set(JOINT_NAMES) == set(range(15))
    assert {b.name for b in BONES} == EXPECTED_BONES
    assert len(BONES) == len(EXPECTED_BONES)
    assert tuple(i for i in sorted(JOINT_NAMES) if i != ROOT_JOINT) == DETECTED_JOINTS
    assert JOINT_NAMES[ROOT_JOINT] == "Torso"
    for bone in BONES:
        assert bone.parent_joint in JOINT_NAMES and bone.child_joint in JOINT_NAMES, bone.name
        assert bone.frame_class in FRAME_CLASSES, bone.name


def test_bone_tree_rooted_at_torso():
    roots = [b for b in BONES if b.parent_bone is None]
    assert [b.name for b in roots] == ["torso"]
    assert BONES[0] is roots[0]
    by_name = {b.name: b for b in BONES}
    for bone in BONES:
        steps = 0
        cur = bone
        while cur.parent_bone is not None:
            cur = by_name[cur.parent_bone]
            steps += 1
        assert cur.name == "torso"
        assert steps <= 4


def test_topological_order_parents_first():
    seen = set()
    for bone in BONES:
        if bone.parent_bone is not None:
            assert bone.parent_bone in seen
        seen.add(bone.name)


def test_bone_vector_axis_aligned():
    positions = dict(enumerate(T_POSE))
    positions[8] = np.array([0.0, 0.0, 0.0])
    positions[9] = np.array([0.0, -500.0, 0.0])
    skel = Skeleton3D(0, positions)
    assert np.allclose(bone_vector(skel, "r_upper_leg"), [0.0, -1.0, 0.0], atol=1e-12)


def test_bone_vector_zero_length():
    positions = dict(enumerate(T_POSE))
    positions[9] = positions[8].copy()
    skel = Skeleton3D(0, positions)
    with pytest.raises(ZeroLengthBone):
        bone_vector(skel, "r_upper_leg")


def test_bone_vector_missing_joint():
    positions = dict(enumerate(T_POSE))
    del positions[9]
    skel = Skeleton3D(0, positions)
    with pytest.raises(MissingJoint):
        bone_vector(skel, "r_upper_leg")


def test_bone_vector_normalization_oracle(rng):
    positions = dict(enumerate(T_POSE))
    for _ in range(100):
        positions[8] = rng.uniform(-500, 500, size=3)
        positions[9] = rng.uniform(-500, 500, size=3)
        skel = Skeleton3D(0, positions)
        v = bone_vector(skel, "r_upper_leg")
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        diff = positions[9] - positions[8]
        assert np.linalg.norm(np.cross(v, diff / np.linalg.norm(diff))) < 1e-9


def test_template_rest_directions():
    rest = {bone.name: FRAME_ROTATION[bone.frame_class][:, 0] for bone in BONES}
    assert np.allclose(rest["l_upper_arm"], [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(rest["r_upper_arm"], [-1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(FRAME_ROTATION["up"] @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(FRAME_ROTATION["down"] @ [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], atol=1e-12)


def test_template_orthonormality():
    assert set(FRAME_ROTATION) == set(FRAME_CLASSES)
    for cls in FRAME_CLASSES:
        rc = FRAME_ROTATION[cls]
        assert np.allclose(rc @ rc.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rc) == pytest.approx(1.0, abs=1e-12)


def test_tpose_positions_match_rest_directions():
    positions = T_POSE
    assert positions.shape == (len(JOINT_NAMES), 3) and not positions.flags.writeable
    for bone in BONES:
        d = positions[bone.child_joint] - positions[bone.parent_joint]
        d = d / np.linalg.norm(d)
        assert np.allclose(d, FRAME_ROTATION[bone.frame_class][:, 0], atol=1e-12), bone.name


def test_skeleton_positions_must_match_statuses():
    with pytest.raises(ValueError):
        Skeleton3D(frame=0, positions={0: np.zeros(3)}, statuses={0: "no_consensus"})

