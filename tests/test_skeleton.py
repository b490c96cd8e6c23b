from dataclasses import replace

import numpy as np
import pytest

from oracles import MissingJoint, ZeroLengthBone, bone_vector

from mvmocap.skeleton import (
    DETECTED_JOINTS,
    FRAME_CLASSES,
    JOINT_NAMES,
    ROOT_JOINT,
    Skeleton3D,
    SkeletonTopology,
    tpose_positions,
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


def test_topology_has_expected_joints_and_bones(topology):
    assert {i for i, _ in topology.joints} == set(range(15))
    assert {b.name for b in topology.bones} == EXPECTED_BONES
    assert topology.detected_joint_indices == DETECTED_JOINTS
    assert JOINT_NAMES[ROOT_JOINT] == "Torso"


def test_bone_tree_rooted_at_torso(topology):
    roots = [b for b in topology.bones if b.parent_bone is None]
    assert [b.name for b in roots] == ["torso"]
    for bone in topology.bones:
        steps = 0
        cur = bone
        while cur.parent_bone is not None:
            cur = topology.bone(cur.parent_bone)
            steps += 1
        assert cur.name == "torso"
        assert steps <= 4


def test_topological_order_parents_first(topology):
    seen = set()
    for bone in topology.bones:
        if bone.parent_bone is not None:
            assert bone.parent_bone in seen
        seen.add(bone.name)


def test_bone_vector_axis_aligned(topology):
    positions = dict(tpose_positions())
    positions[8] = np.array([0.0, 0.0, 0.0])
    positions[9] = np.array([0.0, -500.0, 0.0])
    skel = Skeleton3D(0, positions)
    assert np.allclose(bone_vector(skel, "r_upper_leg", topology), [0.0, -1.0, 0.0], atol=1e-12)


def test_bone_vector_zero_length(topology):
    positions = dict(tpose_positions())
    positions[9] = positions[8].copy()
    skel = Skeleton3D(0, positions)
    with pytest.raises(ZeroLengthBone):
        bone_vector(skel, "r_upper_leg", topology)


def test_bone_vector_missing_joint(topology):
    positions = dict(tpose_positions())
    del positions[9]
    skel = Skeleton3D(0, positions)
    with pytest.raises(MissingJoint):
        bone_vector(skel, "r_upper_leg", topology)


def test_bone_vector_normalization_oracle(topology, rng):
    positions = dict(tpose_positions())
    for _ in range(100):
        positions[8] = rng.uniform(-500, 500, size=3)
        positions[9] = rng.uniform(-500, 500, size=3)
        skel = Skeleton3D(0, positions)
        v = bone_vector(skel, "r_upper_leg", topology)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        diff = positions[9] - positions[8]
        assert np.linalg.norm(np.cross(v, diff / np.linalg.norm(diff))) < 1e-9


def test_template_rest_directions(template):
    assert np.allclose(template.rest_direction["l_upper_arm"], [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(template.rest_direction["r_upper_arm"], [-1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(template.frame_rotation["up"] @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(template.frame_rotation["down"] @ [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], atol=1e-12)


def test_template_self_consistency(topology, template):
    x = np.array([1.0, 0.0, 0.0])
    for bone in topology.bones:
        expected = template.frame_rotation[bone.frame_class] @ x
        assert np.allclose(expected, template.rest_direction[bone.name], atol=1e-12)


def test_template_orthonormality(template):
    for cls in FRAME_CLASSES:
        rc = template.frame_rotation[cls]
        assert np.allclose(rc @ rc.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rc) == pytest.approx(1.0, abs=1e-12)


def test_tpose_positions_match_rest_directions(topology, template):
    positions = tpose_positions()
    for bone in topology.bones:
        d = positions[bone.child_joint] - positions[bone.parent_joint]
        d = d / np.linalg.norm(d)
        assert np.allclose(d, template.rest_direction[bone.name], atol=1e-12), bone.name


def test_skeleton_positions_must_match_statuses():
    with pytest.raises(ValueError):
        Skeleton3D(frame=0, positions={0: np.zeros(3)}, statuses={0: "no_consensus"})


def test_topology_rejects_two_roots(topology):
    bones = tuple(replace(b, parent_bone=None) if b.name == "head" else b for b in topology.bones)
    with pytest.raises(ValueError):
        SkeletonTopology(joints=topology.joints, bones=bones)


def test_topology_rejects_child_before_parent(topology):
    bones = list(topology.bones)
    upper = next(i for i, b in enumerate(bones) if b.name == "l_upper_arm")
    lower = next(i for i, b in enumerate(bones) if b.name == "l_lower_arm")
    bones[upper], bones[lower] = bones[lower], bones[upper]
    with pytest.raises(ValueError):
        SkeletonTopology(joints=topology.joints, bones=tuple(bones))
