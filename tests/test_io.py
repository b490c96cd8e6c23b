import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    calibration_text,
    joint_statuses,
    keypoint_line_per_value,
    read_keypoints,
    read_skeletons,
    read_transforms,
    skeleton_chunks,
    skeleton_line_per_value,
    snap_rotation,
    transform_line_per_value,
)

from mvmocap import io as mio
from mvmocap.geometry import CameraParams
from mvmocap.retarget import STATUS_FELL_BACK, BoneTransformSet, retarget_chunks, retarget_frame
from mvmocap.skeleton import BONES, DETECTED_JOINTS, JOINT_NAMES, STATUS_NO_CONSENSUS, STATUS_OK, Skeleton3D, rotation_about_axis
from mvmocap.synth import PRESETS, generate_scene, render_observations
from mvmocap.voxel import JointObservationFrame


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


_CAMERA = {"id": 0, "K": [[1000, 0, 960], [0, 1000, 540], [0, 0, 1]], "R": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
           "t": [0, 0, 3000], "width": 1920, "height": 1080}
_NOT_CAMERAS = "calibration is not a JSON array of camera objects"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"id": 0}', _NOT_CAMERAS),
        ("[1]", _NOT_CAMERAS),
        ('["x"]', _NOT_CAMERAS),
        (json.dumps([dict(_CAMERA, K=5)]), "invalid camera entry: expected an array of 3 rows, got 5"),
        (json.dumps([dict(_CAMERA, t=5)]), "invalid camera entry: expected an array of 3 finite numbers, got 5"),
    ],
    ids=["object", "number-entry", "string-entry", "number-K", "number-t"],
)
def test_calibration_of_the_wrong_shape_is_parse_error(tmp_path, text, message):
    path = tmp_path / "calib.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(mio.InputParseError) as info:
        mio.load_cameras(path)
    assert str(info.value) == f"{path}: {message}"


def test_keypoints_round_trip(tmp_path):
    scene = generate_scene("walk", frames=3, noise_px=1.0, dropout=0.3, seed=5)
    frames = render_observations(scene)
    path = tmp_path / "kp.jsonl"
    mio.write_keypoints(path, frames)
    loaded = list(read_keypoints(path, {c.id for c in scene.cameras}))
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
    loaded, loaded_rootless = read_skeletons(path)
    assert loaded.frame == 7
    assert joint_statuses(loaded) == joint_statuses(skel)
    assert np.allclose(loaded.positions[0], skel.positions[0], atol=1e-6)
    assert mio.skeleton_line(rootless.frame, rootless.positions).endswith('{"idx": 13, "status": "ok", "p": [13.000000, 13.000000, 13.000000]}, '
                                                '{"idx": 14, "status": "no_consensus"}]}')
    assert joint_statuses(loaded_rootless) == joint_statuses(rootless)


def test_skeleton_record_leaving_a_joint_out_reads_as_nan_row(tmp_path):
    path = tmp_path / "skel.jsonl"
    path.write_text('{"frame": 0, "joints": [{"idx": 2, "status": "ok", "p": [1, 2.5, -3]}]}\n', encoding="utf-8")
    (skel,) = read_skeletons(path)
    assert np.array_equal(skel.positions[2], [1.0, 2.5, -3.0])
    assert np.isnan(np.delete(skel.positions, 2, axis=0)).all()
    joints = mio.skeleton_line(skel.frame, skel.positions).split('"joints": ')[1]
    assert joints.count('"status": "no_consensus"') == 14 and joints.count('"idx"') == 15


def test_transform_round_trip(tmp_path):
    scene = generate_scene("wave", frames=1, seed=6)
    tset = retarget_frame(scene.truth[0])
    path = tmp_path / "anim.jsonl"
    mio.write_transforms(path, retarget_chunks(skeleton_chunks(scene.truth)))
    loaded = list(read_transforms(path))[0]
    assert loaded.frame == tset.frame
    assert loaded.statuses == tset.statuses
    for name in tset.transforms:
        assert np.allclose(loaded.transforms[name], tset.transforms[name], atol=1e-6)
        assert np.array_equal(loaded.transforms[name][3], [0.0, 0.0, 0.0, 1.0])


# Rotation entries around the rounding edge of the 6th decimal, on both signs, and -0.0.
ROTATION_ENTRIES = st.one_of(
    st.sampled_from([-0.0, 1e-7, 4e-7, -4e-7, 5e-7, -5e-7, -5.000001e-7, -1e-6, -1.5e-6, -1.0]),
    st.floats(-1.0, 1.0),
    st.floats(-1e6, 1e6),
)


@st.composite
def transform_chunks(draw):
    """(frames, rotations, ok flags) chunks as retarget_chunks yields them, over increasing frames."""
    chunks, frame = [], draw(st.integers(0, 10**6))
    for n in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        frames = tuple(range(frame, frame + n))
        rot = np.array(draw(st.lists(ROTATION_ENTRIES, min_size=n * len(BONES) * 9, max_size=n * len(BONES) * 9)))
        ok = np.array(draw(st.lists(st.booleans(), min_size=n * len(BONES), max_size=n * len(BONES))))
        chunks.append((frames, rot.reshape(n, len(BONES), 3, 3), ok.reshape(n, len(BONES))))
        frame += n + draw(st.integers(0, 3))
    return chunks


@settings(max_examples=50, deadline=None)
@given(chunks=transform_chunks())
def test_write_transforms_is_the_per_value_writer(tmp_path_factory, chunks):
    """Each line is the per-value writer's line for the frame's BoneTransformSet:
    zero translation, bottom row (0, 0, 0, 1), bones listed by name."""
    path = tmp_path_factory.getbasetemp() / "drawn_anim.jsonl"
    mio.write_transforms(path, chunks)
    expected = []
    for frames, rot, ok in chunks:
        transforms = np.zeros(rot.shape[:2] + (4, 4))
        transforms[..., :3, :3] = rot
        transforms[..., 3, 3] = 1.0
        for frame, mats, flags in zip(frames, transforms, ok):
            tset = BoneTransformSet(
                frame=frame,
                transforms={bone.name: m for bone, m in zip(BONES, mats)},
                statuses={bone.name: STATUS_OK if f else STATUS_FELL_BACK for bone, f in zip(BONES, flags)},
            )
            expected.append(transform_line_per_value(tset) + "\n")
    assert path.read_text(encoding="utf-8") == "".join(expected)


def test_floats_serialized_with_fixed_precision(tmp_path):
    skel = Skeleton3D(0, {0: np.array([1.0, 0.5, -2.0])})
    line = mio.skeleton_line(skel.frame, skel.positions)
    assert '"p": [1.000000, 0.500000, -2.000000]' in line
    rows = np.full((15, 3), np.nan)
    rows[0] = [1.0, 0.5, -2.0]
    assert mio.skeleton_line(0, Skeleton3D(0, rows).positions) == line  # the array form writes what the mapping form does


def test_negative_zero_is_written_as_zero():
    for x, text in ((-0.0, "0.000000"), (-1e-12, "0.000000"), (-4.9e-7, "0.000000"),
                    (-6e-7, "-0.000001"), (4.9e-7, "0.000000")):
        assert f'"p": [{text}, {text}, {text}]' in mio.skeleton_line(0, Skeleton3D(0, {0: np.full(3, x)}).positions)


# Floats around the writers' edges: the band (-5e-7, 0] that rounds to an
# unsigned zero, values next to it, +-1e300 (300-digit fields), subnormals,
# and anything else a float can hold, NaN and infinities included.
EDGE_FLOATS = st.one_of(
    st.floats(-5e-7, 0.0, exclude_min=True),
    st.sampled_from([-0.0, -5e-7, 5e-7, -5.000001e-7, -6e-7, 1e300, -1e300, 5e-324, -5e-324, 2.2e-308, -2.2e-308]),
    st.floats(-1e-300, 1e-300),
    st.floats(),
)
NAN_ROW = [float("nan")] * 3
ROWS = st.one_of(st.just(NAN_ROW), st.lists(EDGE_FLOATS, min_size=3, max_size=3))


@settings(max_examples=300, deadline=None)
@given(frame=st.integers(0, 10**9), rows=st.lists(ROWS, min_size=len(JOINT_NAMES), max_size=len(JOINT_NAMES)))
def test_skeleton_line_is_the_per_value_writer(frame, rows):
    skel = Skeleton3D(frame, np.array(rows, dtype=float))
    assert mio.skeleton_line(skel.frame, skel.positions) == skeleton_line_per_value(skel)


@settings(max_examples=300, deadline=None)
@given(frame=st.integers(0, 10**9), view_ids=st.lists(st.integers(0, 10**6), unique=True, max_size=6), data=st.data())
def test_keypoint_line_is_the_per_value_writer(frame, view_ids, data):
    rows = data.draw(st.lists(ROWS, min_size=len(view_ids) * len(DETECTED_JOINTS), max_size=len(view_ids) * len(DETECTED_JOINTS)))
    obs = JointObservationFrame(frame, view_ids, np.array(rows, dtype=float).reshape(len(view_ids), len(DETECTED_JOINTS), 3))
    assert mio.keypoint_line(obs) == keypoint_line_per_value(obs)


@st.composite
def edge_cameras(draw):
    """Cameras whose K, R and t hold the edge floats: a rotation by an angle
    in the zero band has entries in (-5e-7, 0]."""
    cameras = []
    for camera_id in draw(st.lists(st.integers(0, 10**6), unique=True, max_size=4)):
        focal = st.one_of(st.floats(5e-324, 1e300), st.sampled_from([5e-324, 1e300]))
        K = [[draw(focal), draw(EDGE_FLOATS), draw(EDGE_FLOATS)], [0.0, draw(focal), draw(EDGE_FLOATS)], [0.0, 0.0, 1.0]]
        axis = draw(st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.3, -0.5, 0.8)]))
        angle = draw(st.one_of(st.floats(-5e-7, 5e-7), st.floats(-np.pi, np.pi)))
        t = draw(st.lists(EDGE_FLOATS, min_size=3, max_size=3))
        size = (draw(st.integers(1, 10**5)), draw(st.integers(1, 10**5)))
        cameras.append(CameraParams(camera_id, np.array(K), rotation_about_axis(np.array(axis), angle), np.array(t), size))
    return cameras


@settings(max_examples=200, deadline=None)
@given(cameras=edge_cameras())
def test_save_cameras_is_the_per_value_writer(tmp_path_factory, cameras):
    path = tmp_path_factory.getbasetemp() / "edge_calib.json"
    mio.save_cameras(path, cameras)
    assert path.read_text(encoding="utf-8") == calibration_text(cameras)


def test_parse_error_carries_file_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame": 0, "joints": []}\nnot json\n', encoding="utf-8")
    with pytest.raises(mio.InputParseError, match=r"bad\.jsonl:2"):
        list(read_skeletons(path))


@pytest.mark.parametrize("stream", ["keypoints", "skeletons"])
def test_parse_error_names_the_line_in_the_file(tmp_path, stream):
    """Blank lines are skipped but still counted: a bad record after one is
    reported at its own line of the file."""
    scene = generate_scene("walk", frames=2, seed=7)
    path = tmp_path / "stream.jsonl"
    if stream == "keypoints":
        mio.write_keypoints(path, render_observations(scene))
        read = lambda p: read_keypoints(p, {c.id for c in scene.cameras})
    else:
        mio.write_skeletons(path, scene.truth)
        read = read_skeletons
    first, second = path.read_text(encoding="utf-8").splitlines()
    path.write_text(f"{first}\n\n  \n{second}\nnot json\n", encoding="utf-8")
    with pytest.raises(mio.InputParseError, match=r"stream\.jsonl:5: "):
        list(read(path))


@pytest.mark.parametrize(
    "tail, reason",
    [(b"", None), (b"\xff\n", "invalid start byte"), (b"\xe2\x82", "unexpected end of data")],
    ids=["utf8", "bad-byte", "cut-at-end"],
)
def test_non_ascii_lines_are_checked_as_utf8(tmp_path, tail, reason):
    """A line that is not ASCII but is UTF-8 reads as any other; bytes that
    are not UTF-8 give the codec's reason at their own line."""
    path = tmp_path / "stream.jsonl"
    path.write_bytes('{"frame": 0, "note": "é", "joints": []}\r\n'.encode() + tail)
    if reason is None:
        assert [s.frame for s in read_skeletons(path)] == [0]
    else:
        with pytest.raises(mio.InputParseError, match=rf"stream\.jsonl:2: invalid UTF-8: {reason}$"):
            list(read_skeletons(path))


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(mio.InputParseError):
        list(read_skeletons(tmp_path / "absent.jsonl"))
    with pytest.raises(mio.InputParseError):
        mio.load_cameras(tmp_path / "absent.json")
