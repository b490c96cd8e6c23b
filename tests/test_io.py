import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import joint_statuses, read_transforms, snap_rotation

from mvmocap import io as mio
from mvmocap.mathutil import rotation_about_axis
from mvmocap.retarget import BoneTransformSet, retarget_frame
from mvmocap.skeleton import BONES, STATUS_NO_CONSENSUS, STATUS_OK, Skeleton3D
from mvmocap.synth import PRESETS, generate_scene, render_observations


def test_camera_round_trip(tmp_path, ring):
    path = tmp_path / "calib.json"
    mio.save_cameras(path, ring)
    loaded = mio.load_cameras(path)
    assert len(loaded) == len(ring)
    for a, b in zip(ring, loaded):
        assert a.id == b.id and a.resolution == b.resolution
        assert np.allclose(a.intrinsic, b.intrinsic, atol=1e-6)
        assert np.allclose(a.rotation, b.rotation, atol=1e-6)
        assert np.allclose(a.translation, b.translation, atol=1e-6)


def _assert_loads_as_one_camera_at_a_time(path, entries):
    """load_cameras(path) gives, bit for bit, the K, R and t that checking and
    snapping each entry's rotation on its own gives."""
    loaded = mio.load_cameras(path)
    assert [c.id for c in loaded] == [e["id"] for e in entries]
    for camera, entry in zip(loaded, entries):
        assert camera.intrinsic.tobytes() == np.array(entry["K"], dtype=float).tobytes()
        assert camera.rotation.tobytes() == snap_rotation(np.array(entry["R"], dtype=float)).tobytes()
        assert camera.translation.tobytes() == np.array(entry["t"], dtype=float).tobytes()


@pytest.mark.parametrize("preset", PRESETS)
def test_stacked_calibration_check_matches_one_camera_at_a_time(tmp_path, preset):
    path = tmp_path / "calib.json"
    mio.save_cameras(path, generate_scene(preset, frames=1, seed=3).cameras)
    _assert_loads_as_one_camera_at_a_time(path, json.loads(path.read_text(encoding="utf-8")))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stacked_calibration_check_matches_one_camera_at_a_time_on_perturbed_rotations(tmp_path_factory, ring, data):
    """Rotations rounded to 6 decimals and moved by up to 1e-7 to 1e-4 per entry, on both
    sides of the 1e-4 limit, and some of them reflections."""
    scale = data.draw(st.sampled_from((1e-7, 1e-6, 1e-5, 3e-5, 1e-4)))
    entries = []
    for camera in ring[: data.draw(st.integers(1, len(ring)))]:
        axis = data.draw(st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3))
        R = rotation_about_axis(np.array(axis), data.draw(st.floats(-np.pi, np.pi)))
        R = R.round(6) + scale * np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))).reshape(3, 3)
        if data.draw(st.integers(0, 9)) == 0:
            R = -R
        w, h = camera.resolution
        entries.append({"id": camera.id, "K": camera.intrinsic.tolist(), "R": R.tolist(),
                        "t": camera.translation.tolist(), "width": w, "height": h})
    path = tmp_path_factory.getbasetemp() / "perturbed_calib.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    try:
        for entry in entries:
            snap_rotation(np.array(entry["R"], dtype=float))
    except ValueError:
        with pytest.raises(mio.InputParseError, match="invalid camera entry: R is not a rotation matrix"):
            mio.load_cameras(path)
    else:
        _assert_loads_as_one_camera_at_a_time(path, entries)


def test_keypoints_round_trip(tmp_path):
    scene = generate_scene("walk", frames=3, noise_px=1.0, dropout=0.3, seed=5)
    frames = render_observations(scene)
    path = tmp_path / "kp.jsonl"
    mio.write_keypoints(path, frames)
    loaded = list(mio.read_keypoints(path))
    assert [f.frame for f in loaded] == [0, 1, 2]
    for orig, back in zip(frames, loaded):
        assert orig.view_ids == back.view_ids
        assert np.array_equal(np.isnan(orig.table), np.isnan(back.table))
        assert np.allclose(orig.table, back.table, atol=1e-6, equal_nan=True)


def test_skeleton_round_trip_preserves_statuses(tmp_path):
    skel = Skeleton3D(
        frame=7,
        positions={0: np.array([1.25, -2.5, 3.0])},
        statuses={0: STATUS_OK, 1: STATUS_NO_CONSENSUS},
    )
    # The form perfbench/scenes.py builds: the root left out of positions, statuses listing all 15 joints.
    rootless = Skeleton3D(
        frame=8,
        positions={i: np.full(3, float(i)) for i in range(14)},
        statuses={**dict.fromkeys(range(14), STATUS_OK), 14: STATUS_NO_CONSENSUS},
    )
    path = tmp_path / "skel.jsonl"
    mio.write_skeletons(path, [skel, rootless])
    loaded, loaded_rootless = mio.read_skeletons(path)
    assert loaded.frame == 7
    assert joint_statuses(loaded) == joint_statuses(skel)
    assert np.allclose(loaded.positions[0], skel.positions[0], atol=1e-6)
    assert mio.skeleton_line(rootless).endswith('{"idx": 13, "status": "ok", "p": [13.000000, 13.000000, 13.000000]}, '
                                                '{"idx": 14, "status": "no_consensus"}]}')
    assert joint_statuses(loaded_rootless) == joint_statuses(rootless)


def test_skeleton_record_leaving_a_joint_out_reads_as_nan_row(tmp_path):
    path = tmp_path / "skel.jsonl"
    path.write_text('{"frame": 0, "joints": [{"idx": 2, "status": "ok", "p": [1, 2.5, -3]}]}\n', encoding="utf-8")
    (skel,) = mio.read_skeletons(path)
    assert np.array_equal(skel.positions[2], [1.0, 2.5, -3.0])
    assert np.isnan(np.delete(skel.positions, 2, axis=0)).all()
    joints = mio.skeleton_line(skel).split('"joints": ')[1]
    assert joints.count('"status": "no_consensus"') == 14 and joints.count('"idx"') == 15


def test_transform_round_trip(tmp_path):
    scene = generate_scene("wave", frames=1, seed=6)
    tset = retarget_frame(scene.truth[0])
    path = tmp_path / "anim.jsonl"
    mio.write_transforms(path, [tset])
    loaded = list(read_transforms(path))[0]
    assert loaded.frame == tset.frame
    assert loaded.statuses == tset.statuses
    for name in tset.transforms:
        assert np.allclose(loaded.transforms[name], tset.transforms[name], atol=1e-6)
        assert np.array_equal(loaded.transforms[name][3], [0.0, 0.0, 0.0, 1.0])


def _reference_transform_line(tset):
    """The transform record with one format(x, ".6f") per value, "-0.000000" written unsigned."""
    fmt = lambda x: "0.000000" if format(x, ".6f") == "-0.000000" else format(x, ".6f")
    bones = []
    for name in sorted(tset.transforms):
        rows = ", ".join("[" + ", ".join(fmt(x) for x in row) + "]" for row in tset.transforms[name].tolist())
        bones.append(f'{{"name": "{name}", "status": "{tset.statuses[name]}", "T": [{rows}]}}')
    return f'{{"frame": {tset.frame}, "bones": [' + ", ".join(bones) + "]}"


def test_templated_transform_line_matches_per_value_format(rng):
    # Around the rounding boundary of the 6th decimal, on both signs, and -0.0.
    crafted = np.array([-4e-7, -5e-7, -1e-6, 1e-7, -0.0, 5e-7, -5.000001e-7, -0.0000015, -1.0])
    bones = BONES
    for frame in range(30):
        values = rng.normal(size=(len(bones), 4, 4)) * 10.0 ** rng.integers(-8, 4, size=(len(bones), 4, 4))
        mask = rng.random(values.shape) < 0.3
        values[mask] = rng.choice(crafted, size=mask.sum())
        tset = BoneTransformSet(
            frame=frame,
            transforms={bone.name: m for bone, m in zip(reversed(bones), values)},
            statuses={bone.name: ("ok", "fell_back")[(frame + i) % 2] for i, bone in enumerate(bones)},
        )
        assert mio.transform_line(tset) == _reference_transform_line(tset)


def test_floats_serialized_with_fixed_precision(tmp_path):
    skel = Skeleton3D(0, {0: np.array([1.0, 0.5, -2.0])})
    line = mio.skeleton_line(skel)
    assert '"p": [1.000000, 0.500000, -2.000000]' in line
    rows = np.full((15, 3), np.nan)
    rows[0] = [1.0, 0.5, -2.0]
    assert mio.skeleton_line(Skeleton3D(0, rows)) == line  # the array form writes what the mapping form does


def test_negative_zero_is_written_as_zero():
    for x in (-0.0, -1e-12, -4.9e-7):
        assert mio._fmt(x) == "0.000000"
    assert mio._fmt(-6e-7) == "-0.000001"
    assert mio._fmt(4.9e-7) == "0.000000"


def test_parse_error_carries_file_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame": 0, "joints": []}\nnot json\n', encoding="utf-8")
    with pytest.raises(mio.InputParseError, match=r"bad\.jsonl:2"):
        list(mio.read_skeletons(path))


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(mio.InputParseError):
        list(mio.read_skeletons(tmp_path / "absent.jsonl"))
    with pytest.raises(mio.InputParseError):
        mio.load_cameras(tmp_path / "absent.json")
