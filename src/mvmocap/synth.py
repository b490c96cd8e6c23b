"""Synthetic scenes with known ground truth.

Scenes stand in for a physical capture rig: five 1920x1080 cameras on a
ring around the origin, plus parametric body motion built by rotating
template bones rigidly (so bone lengths are constant by construction).
Observations are exact projections of the truth with optional pixel-space
Gaussian noise and per-joint dropout, which mimics a 2D detector.

Everything is deterministic given the seed; per-frame noise uses derived
sub-seeds so frames can be rendered independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraParams, project
from .skeleton import BONES, DETECTED_JOINTS, JOINT_NAMES, ROOT_JOINT, T_POSE, Skeleton3D, rotation_about_axis
from .voxel import JointObservationFrame

PRESETS = ("tpose-static", "walk", "wave", "squat")

_RING_VIEWS = 5
_RING_RADIUS_MM = 3000.0
_RING_HEIGHT_MM = 620.0  # roughly 1.5 m above the feet
_RESOLUTION = (1920, 1080)
_FOCAL_PX = 1000.0

_X = np.array([1.0, 0.0, 0.0])
_Z = np.array([0.0, 0.0, 1.0])


class UnknownPreset(ValueError):
    """Requested motion preset does not exist."""


@dataclass
class SyntheticScene:
    cameras: list[CameraParams]
    truth: list[Skeleton3D]
    noise_px: float
    dropout: float
    rng_seed: int


def camera_ring() -> list[CameraParams]:
    """Evenly spaced cameras on a ring, all aimed at the origin."""
    w, h = _RESOLUTION
    K = np.array([[_FOCAL_PX, 0.0, w / 2.0], [0.0, _FOCAL_PX, h / 2.0], [0.0, 0.0, 1.0]])
    up = np.array([0.0, 1.0, 0.0])
    cams = []
    for i in range(_RING_VIEWS):
        angle = 2.0 * np.pi * i / _RING_VIEWS
        center = np.array([_RING_RADIUS_MM * np.sin(angle), _RING_HEIGHT_MM, _RING_RADIUS_MM * np.cos(angle)])
        z_axis = -center / np.linalg.norm(center)  # look at the origin
        x_axis = np.cross(z_axis, up)
        x_axis /= np.linalg.norm(x_axis)
        y_axis = np.cross(z_axis, x_axis)
        R = np.stack([x_axis, y_axis, z_axis])
        t = -R @ center
        cams.append(CameraParams(id=i, intrinsic=K, rotation=R, translation=t, resolution=_RESOLUTION))
    return cams


def _pose_from_rotations(bone_rotations: dict[str, np.ndarray], root_offset: np.ndarray) -> np.ndarray:
    """(15, 3) joint positions from rotating template bone offsets rigidly.

    bone_rotations maps bone name -> global rotation applied to that
    bone's template offset; unspecified bones stay at rest. Hip joints
    ride on the torso rotation so the pelvis stays rigid.
    """
    torso_rot = bone_rotations.get("torso", np.eye(3))
    positions = np.full((len(JOINT_NAMES), 3), np.nan)
    positions[ROOT_JOINT] = T_POSE[ROOT_JOINT] + root_offset
    for hip in (8, 11):
        positions[hip] = positions[ROOT_JOINT] + torso_rot @ (T_POSE[hip] - T_POSE[ROOT_JOINT])
    for bone in BONES:
        rot = bone_rotations.get(bone.name, np.eye(3))
        offset = T_POSE[bone.child_joint] - T_POSE[bone.parent_joint]
        positions[bone.child_joint] = positions[bone.parent_joint] + rot @ offset
    return positions


def _walk_rotations(phase: float) -> tuple[dict[str, np.ndarray], np.ndarray]:
    swing = np.deg2rad(25.0) * np.sin(phase)
    knee_r = np.deg2rad(20.0) * max(0.0, np.sin(phase))
    knee_l = np.deg2rad(20.0) * max(0.0, -np.sin(phase))
    arm = np.deg2rad(15.0) * np.sin(phase)
    rot = {
        "r_upper_leg": rotation_about_axis(_X, swing),
        "r_lower_leg": rotation_about_axis(_X, swing + knee_r),
        "l_upper_leg": rotation_about_axis(_X, -swing),
        "l_lower_leg": rotation_about_axis(_X, -swing + knee_l),
        "r_upper_arm": rotation_about_axis(_X, -arm),
        "r_lower_arm": rotation_about_axis(_X, -arm),
        "l_upper_arm": rotation_about_axis(_X, arm),
        "l_lower_arm": rotation_about_axis(_X, arm),
    }
    return rot, np.zeros(3)


def _wave_rotations(phase: float) -> tuple[dict[str, np.ndarray], np.ndarray]:
    raise_angle = np.deg2rad(60.0) * 0.5 * (1.0 - np.cos(phase))
    wave = np.deg2rad(30.0) * np.sin(2.0 * phase)
    rot = {
        "l_upper_arm": rotation_about_axis(_Z, raise_angle),
        "l_lower_arm": rotation_about_axis(_Z, raise_angle + wave),
    }
    return rot, np.zeros(3)


def _squat_rotations(phase: float) -> tuple[dict[str, np.ndarray], np.ndarray]:
    bend = np.deg2rad(50.0) * 0.5 * (1.0 - np.cos(phase))
    thigh = rotation_about_axis(_X, -bend)
    shank = rotation_about_axis(_X, bend)
    rot = {
        "r_upper_leg": thigh,
        "l_upper_leg": thigh,
        "r_lower_leg": shank,
        "l_lower_leg": shank,
    }
    leg_len = 430.0 + 450.0  # template thigh + shank
    drop = np.array([0.0, -(1.0 - np.cos(bend)) * leg_len, 0.0])
    return rot, drop


_MOTIONS = {
    "tpose-static": lambda phase: ({}, np.zeros(3)),
    "walk": _walk_rotations,
    "wave": _wave_rotations,
    "squat": _squat_rotations,
}


def generate_scene(
    preset: str,
    frames: int,
    noise_px: float = 0.0,
    dropout: float = 0.0,
    seed: int = 0,
) -> SyntheticScene:
    """Deterministic scene: ring cameras plus `frames` of truth skeletons."""
    if preset not in PRESETS:
        raise UnknownPreset(f"unknown preset {preset!r}; choose from {PRESETS}")
    if frames < 1:
        raise ValueError("frames must be at least 1")
    if not (np.isfinite(noise_px) and noise_px >= 0.0):
        raise ValueError(f"noise must be a finite number >= 0, got {noise_px}")
    if not 0.0 <= dropout <= 1.0:
        raise ValueError(f"dropout must lie in [0, 1], got {dropout}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    motion = _MOTIONS[preset]
    period = 40.0
    truth = []
    for f in range(frames):
        phase = 2.0 * np.pi * f / period
        rotations, root_offset = motion(phase)
        truth.append(Skeleton3D(frame=f, positions=_pose_from_rotations(rotations, root_offset)))
    return SyntheticScene(
        cameras=camera_ring(),
        truth=truth,
        noise_px=float(noise_px),
        dropout=float(dropout),
        rng_seed=int(seed),
    )


def render_observations(scene: SyntheticScene) -> list[JointObservationFrame]:
    """Project truth into every view with noise and dropout applied.

    Kept joints carry confidence 1.0. Draw order (view-major, joint-minor)
    and per-frame sub-seeding keep the output reproducible.
    """
    frames = []
    view_ids = [cam.id for cam in scene.cameras]
    for skel in scene.truth:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=scene.rng_seed, spawn_key=(skel.frame,)))
        points = skel.positions[: len(DETECTED_JOINTS)]  # the root is synthesized downstream, never detected
        table = np.full((len(scene.cameras), len(DETECTED_JOINTS), 3), np.nan)
        for r, cam in enumerate(scene.cameras):
            for idx, pixel in enumerate(project(points, cam)):
                noise = rng.normal(0.0, scene.noise_px, size=2) if scene.noise_px > 0 else np.zeros(2)
                dropped = scene.dropout > 0 and rng.random() < scene.dropout
                if dropped:
                    continue
                table[r, idx, :2] = pixel + noise
                table[r, idx, 2] = 1.0
        frames.append(JointObservationFrame(frame=skel.frame, view_ids=view_ids, table=table))
    return frames
