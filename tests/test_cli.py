"""End-to-end command-line pipeline tests on small synthetic scenes."""

import dataclasses
import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import cube_vertices, joint_ok, joint_statuses, mean_length, overlay_svg, read_transforms

import mvmocap
from mvmocap import io as mio
from mvmocap import cli, retarget, voxel
from mvmocap.cli import EXIT_MISMATCH, EXIT_OK, EXIT_PARSE, _output, build_parser, main
from mvmocap.geometry import project
from mvmocap.overlay import render_overlay_svg
from mvmocap.skeleton import STATUS_NO_CONSENSUS, STATUS_OK


def run_synth(tmp_path, preset="walk", frames=4, noise="0", dropout="0", seed="7"):
    scene_dir = tmp_path / "scene"
    assert main([
        "synth", "--preset", preset, "--frames", str(frames),
        "--noise", noise, "--dropout", dropout, "--seed", seed,
        "--out", str(scene_dir),
    ]) == EXIT_OK
    return scene_dir


def test_full_pipeline(tmp_path):
    scene = run_synth(tmp_path)
    skel = tmp_path / "skel.jsonl"
    anim = tmp_path / "anim.jsonl"
    report = tmp_path / "report.json"
    overlays = tmp_path / "overlays"

    assert main([
        "reconstruct", "--calib", str(scene / "calib.json"),
        "--keypoints", str(scene / "keypoints.jsonl"),
        "--sigma", "4", "--delta", "10x10x10", "--out", str(skel),
    ]) == EXIT_OK
    assert main(["retarget", "--skeleton", str(skel), "--out", str(anim)]) == EXIT_OK
    assert main([
        "eval", "--skeleton", str(skel), "--truth", str(scene / "truth.jsonl"),
        "--calib", str(scene / "calib.json"), "--keypoints", str(scene / "keypoints.jsonl"),
        "--out", str(report),
    ]) == EXIT_OK
    assert main([
        "render-overlay", "--calib", str(scene / "calib.json"),
        "--keypoints", str(scene / "keypoints.jsonl"), "--skeleton", str(skel),
        "--out", str(overlays),
    ]) == EXIT_OK

    skeletons = list(mio.read_skeletons(skel))
    assert len(skeletons) == 4
    assert all(joint_ok(s, i) for s in skeletons for i in range(15))

    data = json.loads(report.read_text())
    assert data["frame_count"] == 4
    assert data["sequence_mean_3d_mm"] <= np.sqrt(3) * 10.0 / 2.0
    assert set(data["per_view_2d_px"]) == {"0", "1", "2", "3", "4"}
    # Noiseless reprojection error stays below the pixel footprint of one
    # terminal cube at scene depth: f * delta * sqrt(3) / depth.
    cameras = mio.load_cameras(scene / "calib.json")
    for cam in cameras:
        depth = float(np.linalg.norm(cam.rotation.T @ cam.translation))
        footprint = cam.intrinsic[0, 0] * 10.0 * np.sqrt(3) / depth
        assert data["per_view_2d_px"][str(cam.id)] < footprint

    transforms = list(read_transforms(anim))
    assert len(transforms) == 4 and len(transforms[0].transforms) == 12
    assert len(list(overlays.glob("frame_*_view_*.svg"))) == 4 * 5


def test_sigma_above_camera_count_warns_and_degrades(tmp_path, capsys):
    scene = run_synth(tmp_path, frames=2)
    skel = tmp_path / "skel.jsonl"
    assert main([
        "reconstruct", "--calib", str(scene / "calib.json"),
        "--keypoints", str(scene / "keypoints.jsonl"),
        "--sigma", "6", "--out", str(skel),
    ]) == EXIT_OK
    err = capsys.readouterr().err
    assert "warning" in err and "sigma=6" in err
    for s in mio.read_skeletons(skel):
        assert set(joint_statuses(s).values()) == {STATUS_NO_CONSENSUS}


@pytest.mark.parametrize("volume, facing", [("8000x4000x8000", 0), ("4000x3000x4000@0,0,1200", 2), (None, None)])
def test_volume_not_in_front_of_sigma_cameras_warns(tmp_path, capsys, volume, facing):
    """A view votes for the cubes its ray crosses in front of the camera, so
    a volume that fewer than sigma cameras have wholly in front of them
    (facing of the 5) still gives every noiseless joint consensus, with no
    warning, as the default volume does."""
    scene = run_synth(tmp_path, frames=2)
    skel = tmp_path / "skel.jsonl"
    flags = ["--volume", volume] if volume else []
    assert main([
        "reconstruct", "--calib", str(scene / "calib.json"),
        "--keypoints", str(scene / "keypoints.jsonl"), "--out", str(skel), *flags,
    ]) == EXIT_OK
    if volume:
        args = build_parser("reconstruct").parse_args(["reconstruct", "--calib", "c", "--keypoints", "k", "--out", "o", *flags])
        corners = cube_vertices(cli._config_from_args(args).estimator_config().initial_volume)
        depths = [(corners @ cam.rotation.T + cam.translation)[:, 2] for cam in mio.load_cameras(scene / "calib.json")]
        assert sum(bool(d.min() > 0.0) for d in depths) == facing
    assert capsys.readouterr().err == ""
    statuses = {status for s in mio.read_skeletons(skel) for status in joint_statuses(s).values()}
    assert statuses == {STATUS_OK}


def test_eval_truth_against_itself_is_zero(tmp_path):
    scene = run_synth(tmp_path, frames=3)
    report = tmp_path / "self"
    assert main([
        "eval", "--skeleton", str(scene / "truth.jsonl"), "--truth", str(scene / "truth.jsonl"),
        "--out", str(report),
    ]) == EXIT_OK
    data = json.loads(report.with_suffix(".json").read_text())
    assert data["sequence_mean_3d_mm"] == 0.0
    assert all(v == 0.0 for v in data["per_frame_3d_mm"])


def test_eval_uniform_offset_is_exact(tmp_path):
    scene = run_synth(tmp_path, frames=3)
    shifted_path = tmp_path / "shifted.jsonl"
    shifted = []
    for s in mio.read_skeletons(scene / "truth.jsonl"):
        s.positions = s.positions + np.array([5.0, 0.0, 0.0])
        shifted.append(s)
    mio.write_skeletons(shifted_path, shifted)
    report = tmp_path / "offset"
    assert main([
        "eval", "--skeleton", str(shifted_path), "--truth", str(scene / "truth.jsonl"),
        "--out", str(report),
    ]) == EXIT_OK
    data = json.loads(report.with_suffix(".json").read_text())
    assert data["sequence_mean_3d_mm"] == pytest.approx(5.0, abs=1e-9)
    csv = report.with_suffix(".csv").read_text().splitlines()
    assert csv[0] == "frame,mean_abs_3d_err_mm"
    assert len(csv) == 4



def test_eval_report_mean_and_joint_count(tmp_path):
    """The report's sequence mean is the mean of its per-frame errors, not of
    the pooled joints, and joint_count counts the joints compared."""
    scene = run_synth(tmp_path, frames=3)
    truth = list(mio.read_skeletons(scene / "truth.jsonl"))
    shifted = []
    for s, dx in zip(mio.read_skeletons(scene / "truth.jsonl"), (1.0, 2.0, 6.0)):
        s.positions = s.positions + np.array([dx, 0.0, 0.0])
        shifted.append(s)
    shifted[1].positions[4] = np.nan  # one joint dropped in one frame
    mio.write_skeletons(tmp_path / "shifted.jsonl", shifted)
    report = tmp_path / "report"
    assert main([
        "eval", "--skeleton", str(tmp_path / "shifted.jsonl"), "--truth", str(scene / "truth.jsonl"),
        "--out", str(report),
    ]) == EXIT_OK
    data = json.loads(report.with_suffix(".json").read_text())
    assert data["per_frame_3d_mm"] == pytest.approx([1.0, 2.0, 6.0], abs=1e-6)
    assert round(data["sequence_mean_3d_mm"], 6) == round(float(np.mean(data["per_frame_3d_mm"])), 6)
    compared = sum(int(np.isfinite(e.positions - t.positions).all(axis=1).sum()) for e, t in zip(shifted, truth))
    assert data["joint_count"] == compared == 3 * 15 - 1


def test_reconstruct_defaults_are_the_estimators():
    """reconstruct's settings without flags, from RunConfig and from the parser, are EstimatorConfig's defaults."""
    want = voxel.EstimatorConfig()
    args = build_parser("reconstruct").parse_args(["reconstruct", "--calib", "c", "--keypoints", "k", "--out", "o"])
    for got in (cli.RunConfig().estimator_config(), cli._config_from_args(args).estimator_config()):
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if field.name == "initial_volume":
                assert np.array_equal(a.center, b.center) and a.edges == b.edges
            else:
                assert a == b, field.name

def _pick_lines(src, dst, order):
    """Write the lines of src at the indices in order to dst; returns dst."""
    lines = src.read_text(encoding="utf-8").splitlines()
    dst.write_text("".join(lines[i] + "\n" for i in order), encoding="utf-8")
    return dst


@pytest.mark.parametrize(
    "edited, order",
    [("skeleton", [0, 1]), ("keypoints", [0, 1]), ("keypoints", [1, 0, 2])],
    ids=["skeleton-short", "keypoints-short", "keypoints-swapped"],
)
def test_eval_frame_mismatch_exits_3(tmp_path, edited, order):
    scene = run_synth(tmp_path, frames=3)
    inputs = {"skeleton": scene / "truth.jsonl", "keypoints": scene / "keypoints.jsonl"}
    inputs[edited] = _pick_lines(inputs[edited], tmp_path / "edited.jsonl", order)
    assert main([
        "eval", "--skeleton", str(inputs["skeleton"]), "--truth", str(scene / "truth.jsonl"),
        "--calib", str(scene / "calib.json"), "--keypoints", str(inputs["keypoints"]),
        "--out", str(tmp_path / "r"),
    ]) == EXIT_MISMATCH


@pytest.mark.parametrize(
    "edited, order", [("skeleton", [0, 1]), ("keypoints", [0, 1])], ids=["skeleton-short", "skeleton-long"]
)
def test_overlay_frame_mismatch_exits_3(tmp_path, capsys, edited, order):
    scene = run_synth(tmp_path, frames=3)
    inputs = {"skeleton": scene / "truth.jsonl", "keypoints": scene / "keypoints.jsonl"}
    inputs[edited] = _pick_lines(inputs[edited], tmp_path / "edited.jsonl", order)
    assert main([
        "render-overlay", "--calib", str(scene / "calib.json"), "--keypoints", str(inputs["keypoints"]),
        "--skeleton", str(inputs["skeleton"]), "--out", str(tmp_path / "ov"),
    ]) == EXIT_MISMATCH
    state = {"skeleton": "keypoints frame 2, skeleton ended", "keypoints": "keypoints ended, skeleton frame 2"}[edited]
    assert f"error: streams out of step: {state}" in capsys.readouterr().err


def test_eval_with_nothing_to_compare_exits_2(tmp_path, capsys):
    scene = run_synth(tmp_path, frames=2)
    skel = tmp_path / "skel.jsonl"
    assert main([
        "reconstruct", "--calib", str(scene / "calib.json"), "--keypoints", str(scene / "keypoints.jsonl"),
        "--sigma", "6", "--out", str(skel),
    ]) == EXIT_OK
    capsys.readouterr()
    report = tmp_path / "report"
    assert main(["eval", "--skeleton", str(skel), "--truth", str(scene / "truth.jsonl"), "--out", str(report)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"error: {skel} and {scene / 'truth.jsonl'}" in err
    assert not report.with_suffix(".json").exists() and not report.with_suffix(".csv").exists()


@pytest.mark.parametrize("given, missing", [("calib", "keypoints"), ("keypoints", "calib")])
def test_eval_needs_calib_and_keypoints_together(tmp_path, capsys, given, missing):
    scene = run_synth(tmp_path, frames=1)
    path = {"calib": scene / "calib.json", "keypoints": scene / "keypoints.jsonl"}[given]
    report = tmp_path / "report"
    assert main([
        "eval", "--skeleton", str(scene / "truth.jsonl"), "--truth", str(scene / "truth.jsonl"),
        f"--{given}", str(path), "--out", str(report),
    ]) == EXIT_PARSE
    assert f"missing required input(s): --{missing}" in capsys.readouterr().err
    assert not report.with_suffix(".json").exists()


def test_bad_input_exits_2(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("definitely not json\n", encoding="utf-8")
    calib = run_synth(tmp_path, frames=1) / "calib.json"
    assert main([
        "reconstruct", "--calib", str(calib), "--keypoints", str(bad), "--out", str(tmp_path / "o.jsonl"),
    ]) == EXIT_PARSE
    assert main(["synth", "--preset", "nope", "--frames", "1", "--out", str(tmp_path / "x")]) == EXIT_PARSE


def test_unknown_view_id_exits_2(tmp_path):
    scene = run_synth(tmp_path, frames=1)
    text = (scene / "keypoints.jsonl").read_text().replace('"view_id": 4', '"view_id": 9')
    (scene / "keypoints.jsonl").write_text(text, encoding="utf-8")
    assert main([
        "reconstruct", "--calib", str(scene / "calib.json"),
        "--keypoints", str(scene / "keypoints.jsonl"), "--out", str(tmp_path / "o.jsonl"),
    ]) == EXIT_PARSE


def _drop_camera_4(scene):
    """Rewrite calib.json without camera 4, which the keypoints still name."""
    calib = scene / "calib.json"
    mio.save_cameras(calib, [c for c in mio.load_cameras(calib) if c.id != 4])
    return calib


def test_eval_unknown_view_id_exits_2(tmp_path, capsys):
    scene = run_synth(tmp_path, frames=1)
    calib = _drop_camera_4(scene)
    assert main([
        "eval", "--skeleton", str(scene / "truth.jsonl"), "--truth", str(scene / "truth.jsonl"),
        "--calib", str(calib), "--keypoints", str(scene / "keypoints.jsonl"), "--out", str(tmp_path / "r"),
    ]) == EXIT_PARSE
    assert f"error: {scene / 'keypoints.jsonl'}:1: bad keypoint record: view 4 is not in the calibration\n" in capsys.readouterr().err


def test_overlay_unknown_view_id_exits_2(tmp_path, capsys):
    scene = run_synth(tmp_path, frames=1)
    calib = _drop_camera_4(scene)
    assert main([
        "render-overlay", "--calib", str(calib), "--keypoints", str(scene / "keypoints.jsonl"),
        "--skeleton", str(scene / "truth.jsonl"), "--out", str(tmp_path / "ov"),
    ]) == EXIT_PARSE
    assert f"error: {scene / 'keypoints.jsonl'}:1: bad keypoint record: view 4 is not in the calibration\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--sigma", "1"],
        ["--delta", "0x10x10"],
        ["--volume", "5x3000x4000"],
        ["--min-conf", "2"],
        ["--delta", "nanx10x10"],
        ["--volume", "nanx3000x4000"],
        ["--volume", "4000x3000x4000@nan,0,0"],
    ],
)
def test_invalid_estimator_settings_exit_2(tmp_path, capsys, flags):
    scene = run_synth(tmp_path, frames=1)
    assert main([
        "reconstruct", "--calib", str(scene / "calib.json"), "--keypoints", str(scene / "keypoints.jsonl"),
        "--out", str(tmp_path / "o.jsonl"), *flags,
    ]) == EXIT_PARSE
    assert "invalid estimator settings" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--delta", "nanx10x10"], "delta components must be finite and positive"),
        (["--volume", "nanx3000x4000"], "cube edges must be finite and positive"),
        (["--volume", "4000x3000x4000@nan,0,0"], "cube center must be finite"),
        (["--volume", "4000x3000x4000@a,0,0"], "--volume center expects numeric X,Y,Z, got 'a,0,0'"),
        (["--volume", "100x100x100@1e400,0,0"], "cube center must be finite"),
        (["--delta", "1e400x10x10"], "delta components must be finite and positive"),
        (["--min-conf", "nan"], "min_confidence must lie in [0, 1]"),
    ],
)
def test_non_finite_estimator_settings_exit_2(tmp_path, capsys, flags, message):
    scene = run_synth(tmp_path, frames=1)
    assert main([
        "reconstruct", "--calib", str(scene / "calib.json"), "--keypoints", str(scene / "keypoints.jsonl"),
        "--out", str(tmp_path / "o.jsonl"), *flags,
    ]) == EXIT_PARSE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("id", 0.5), ("width", 1920.5), ("height", 1080.0), ("id", False)])
def test_non_integer_calibration_field_exits_2(tmp_path, capsys, field, value):
    scene = run_synth(tmp_path, frames=1)
    calib = scene / "calib.json"
    entries = json.loads(calib.read_text(encoding="utf-8"))
    entries[0][field] = value
    calib.write_text(json.dumps(entries), encoding="utf-8")
    assert main([
        "reconstruct", "--calib", str(calib), "--keypoints", str(scene / "keypoints.jsonl"),
        "--delta", "100x100x100", "--out", str(tmp_path / "o.jsonl"),
    ]) == EXIT_PARSE
    assert f"error: {calib}: invalid camera entry: expected an integer, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, at, value",
    [("t", (0,), True), ("t", (2,), "2500.0"), ("K", (0, 0), "1000"), ("K", (2, 2), True), ("R", (1, 1), True),
     ("R", (0, 2), "0.0")],
)
def test_non_number_calibration_entry_exits_2(tmp_path, capsys, field, at, value):
    """float() would read a numeric string or a bool in K, R or t as a number."""
    scene = run_synth(tmp_path, frames=1)
    calib = scene / "calib.json"
    entries = json.loads(calib.read_text(encoding="utf-8"))
    *rows, col = at
    target = entries[0][field]
    for r in rows:
        target = target[r]
    target[col] = value
    calib.write_text(json.dumps(entries), encoding="utf-8")
    assert main([
        "reconstruct", "--calib", str(calib), "--keypoints", str(scene / "keypoints.jsonl"),
        "--delta", "100x100x100", "--out", str(tmp_path / "o.jsonl"),
    ]) == EXIT_PARSE
    assert f"error: {calib}: invalid camera entry: expected a number, got {value!r}" in capsys.readouterr().err


def test_non_number_keypoint_on_a_one_line_file_exits_2(tmp_path, capsys):
    scene = run_synth(tmp_path, frames=1)
    path = scene / "keypoints.jsonl"
    line = path.read_text(encoding="utf-8")
    for key, value in (("u", "512.5"), ("v", True), ("c", False)):
        rec = json.loads(line)
        rec["views"][2]["joints"][5][key] = value
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        assert main([
            "reconstruct", "--calib", str(scene / "calib.json"), "--keypoints", str(path),
            "--delta", "100x100x100", "--out", str(tmp_path / "o.jsonl"),
        ]) == EXIT_PARSE
        assert f"error: {path}:1: bad keypoint record: expected a number, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()


def test_duplicate_camera_id_exits_2(tmp_path, capsys):
    scene = run_synth(tmp_path, frames=1)
    calib = scene / "calib.json"
    entries = json.loads(calib.read_text(encoding="utf-8"))
    moved = dict(entries[0], t=[x + 500.0 for x in entries[0]["t"]])
    calib.write_text(json.dumps(entries + [moved]), encoding="utf-8")
    assert main([
        "reconstruct", "--calib", str(calib), "--keypoints", str(scene / "keypoints.jsonl"),
        "--delta", "100x100x100", "--out", str(tmp_path / "o.jsonl"),
    ]) == EXIT_PARSE
    assert f"error: {calib}: invalid camera entry: duplicate id 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reconstruct", "eval", "render-overlay"])
def test_empty_calibration_exits_2(tmp_path, capsys, command):
    calib, keypoints, skeleton = tmp_path / "calib.json", tmp_path / "keypoints.jsonl", tmp_path / "skel.jsonl"
    calib.write_text("[]\n", encoding="utf-8")
    keypoints.write_text('{"frame": 0, "views": []}\n', encoding="utf-8")
    skeleton.write_text('{"frame": 0, "joints": [{"idx": 0, "status": "ok", "p": [0, 0, 0]}]}\n', encoding="utf-8")
    inputs = {
        "reconstruct": ["--calib", str(calib), "--keypoints", str(keypoints)],
        "eval": ["--skeleton", str(skeleton), "--truth", str(skeleton), "--calib", str(calib), "--keypoints", str(keypoints)],
        "render-overlay": ["--calib", str(calib), "--keypoints", str(keypoints), "--skeleton", str(skeleton)],
    }[command]
    assert main([command, *inputs, "--out", str(tmp_path / "out")]) == EXIT_PARSE
    assert f"error: {calib}: calibration lists no cameras" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_synth_zero_frames_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["synth", "--preset", "walk", "--frames", "0", "--out", str(out)]) == EXIT_PARSE
    assert "frames must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--noise", "-1"], "noise must be a finite number >= 0"),
        (["--noise", "inf"], "noise must be a finite number >= 0"),
        (["--dropout", "2"], "dropout must lie in [0, 1]"),
        (["--dropout", "-1"], "dropout must lie in [0, 1]"),
        (["--seed", "-1"], "seed must be >= 0"),
        # finite, but a keypoint overflows to inf, which reconstruct would reject
        (["--noise", "1e308", "--seed", "1"], "--noise 1e+308 puts keypoints outside the range of a float"),
    ],
)
def test_synth_invalid_noise_or_dropout_exits_2(tmp_path, capsys, flags, message):
    out = tmp_path / "x"
    assert main(["synth", "--preset", "walk", "--frames", "2", *flags, "--out", str(out)]) == EXIT_PARSE
    assert message in capsys.readouterr().err
    assert not out.exists()


def _corrupt_line_2(path, pattern, repl):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1], n = re.subn(pattern, repl, lines[1], count=1)
    assert n == 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "stream, pattern, repl, command",
    [
        ("truth.jsonl", r'"p": \[[^,]+', '"p": [NaN', "retarget"),
        ("truth.jsonl", r'"p": \[[^,]+', '"p": [NaN', "eval"),
        ("keypoints.jsonl", r'"frame": 1,', '"frame": 1e400,', "reconstruct"),
        ("truth.jsonl", r'"p": \[([^,]+), ([^,]+), [^\]]+\]', r'"p": [\1, \2]', "retarget"),
    ],
    ids=["nan-position-retarget", "nan-position-eval", "overflowing-frame", "two-number-position"],
)
def test_malformed_numbers_exit_2_with_line(tmp_path, capsys, stream, pattern, repl, command):
    scene = run_synth(tmp_path, frames=2)
    path = scene / stream
    _corrupt_line_2(path, pattern, repl)
    inputs = {
        "retarget": ["--skeleton", str(path)],
        "eval": ["--skeleton", str(path), "--truth", str(scene / "truth.jsonl")],
        "reconstruct": ["--calib", str(scene / "calib.json"), "--keypoints", str(path), "--delta", "100x100x100"],
    }[command]
    assert main([command, *inputs, "--out", str(tmp_path / "out")]) == EXIT_PARSE
    assert f"error: {path}:2:" in capsys.readouterr().err


def _edit_record_2(path, edit):
    """Apply edit to the parsed record on line 2 of path and write it back;
    an edit that is not callable is written as the record instead."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    if callable(edit):
        edit(rec)
    else:
        rec = edit
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "stream, edit, message, command",
    [
        ("keypoints.jsonl", lambda rec: rec["views"].append(rec["views"][0]), "view 0 listed twice", "reconstruct"),
        (
            "keypoints.jsonl",
            lambda rec: rec["views"][0]["joints"].append(rec["views"][0]["joints"][0]),
            "joint 0 listed twice in view 0",
            "reconstruct",
        ),
        ("truth.jsonl", lambda rec: rec["joints"][3].update(status="bogus"), "unknown status 'bogus'", "retarget"),
        (
            "keypoints.jsonl",
            lambda rec: rec["views"][1]["joints"][2].update(idx=14),
            "joint index 14 outside 0-13",
            "reconstruct",
        ),
        (
            "keypoints.jsonl",
            lambda rec: rec["views"][0]["joints"][0].update(idx=-1),
            "joint index -1 outside 0-13",
            "reconstruct",
        ),
        ("keypoints.jsonl", lambda rec: rec.update(frame=0), "frame 0 does not follow frame 0", "reconstruct"),
        ("truth.jsonl", lambda rec: rec.update(frame=0), "frame 0 does not follow frame 0", "retarget"),
        ("truth.jsonl", lambda rec: rec.update(frame=-3), "frame -3 does not follow frame 0", "eval"),
        ("truth.jsonl", lambda rec: rec["joints"][2].update(idx=15), "joint index 15 outside 0-14", "retarget"),
        ("truth.jsonl", lambda rec: rec["joints"][0].update(idx=-1), "joint index -1 outside 0-14", "eval"),
        # A second elbow (joint 3) at the origin would otherwise replace the first.
        ("truth.jsonl", lambda rec: rec["joints"].append({"idx": 3, "status": "ok", "p": [0, 0, 0]}),
         "joint 3 listed twice", "eval"),
        # int() would read these as joint 3, frame 1 and view 1.
        ("truth.jsonl", lambda rec: rec["joints"][3].update(idx=3.7), "expected an integer, got 3.7", "eval"),
        ("truth.jsonl", lambda rec: rec.update(frame=1.9), "expected an integer, got 1.9", "eval"),
        ("keypoints.jsonl", lambda rec: rec["views"][1].update(view_id=1.2), "expected an integer, got 1.2", "reconstruct"),
        ("keypoints.jsonl", lambda rec: rec.update(frame=1.0), "expected an integer, got 1.0", "reconstruct"),
        (
            "keypoints.jsonl",
            lambda rec: rec["views"][0]["joints"][0].update(idx=True),
            "expected an integer, got True",
            "reconstruct",
        ),
        # float() would read these as numbers.
        ("keypoints.jsonl", lambda rec: rec["views"][0]["joints"][0].update(u="512.5"), "expected a number, got '512.5'",
         "reconstruct"),
        ("keypoints.jsonl", lambda rec: rec["views"][1]["joints"][3].update(v=True), "expected a number, got True",
         "reconstruct"),
        ("truth.jsonl", lambda rec: rec["joints"][2]["p"].__setitem__(1, True), "expected a number, got True", "retarget"),
        ("truth.jsonl", lambda rec: rec["joints"][4]["p"].__setitem__(0, "1.5"), "expected a number, got '1.5'", "eval"),
        # Each joint's checks run before the next joint's: the repeat is reported, not the index 99 after it.
        (
            "keypoints.jsonl",
            lambda rec: rec["views"][0]["joints"].extend([rec["views"][0]["joints"][1], dict(rec["views"][0]["joints"][0], idx=99)]),
            "joint 1 listed twice in view 0",
            "reconstruct",
        ),
        ("truth.jsonl", lambda rec: rec["joints"].__setitem__(3, {"idx": 3, "status": "bogus"}), "unknown status 'bogus'",
         "retarget"),
        ("truth.jsonl", lambda rec: rec["joints"][5]["p"].pop(), "expected an array of 3 numbers, got [", "eval"),
        # Records, views and joints that are not JSON objects, and fields that are not arrays.
        ("truth.jsonl", [1], "the record is not a JSON object", "retarget"),
        ("keypoints.jsonl", [1], "the record is not a JSON object", "reconstruct"),
        ("truth.jsonl", lambda rec: rec["joints"].__setitem__(4, 1), '"joints" is not an array of JSON objects', "retarget"),
        ("truth.jsonl", lambda rec: rec.update(joints=5), '"joints" is not an array of JSON objects', "eval"),
        ("keypoints.jsonl", lambda rec: rec["views"].__setitem__(1, "x"), '"views" is not an array of JSON objects',
         "reconstruct"),
        ("keypoints.jsonl", lambda rec: rec.update(views=5), '"views" is not an array of JSON objects', "reconstruct"),
        ("keypoints.jsonl", lambda rec: rec["views"][0]["joints"].__setitem__(2, [1]), '"joints" is not an array of JSON objects',
         "reconstruct"),
        ("truth.jsonl", lambda rec: rec["joints"][2].update(p=5), "expected an array of 3 numbers, got 5", "eval"),
        # A field the record lacks is named as missing.
        ("truth.jsonl", lambda rec: rec["joints"][3].pop("idx"), 'bad skeleton record: missing field "idx"', "retarget"),
        ("keypoints.jsonl", lambda rec: rec["views"][1]["joints"][2].pop("u"), 'bad keypoint record: missing field "u"',
         "reconstruct"),
        ("truth.jsonl", lambda rec: rec.pop("frame"), 'bad skeleton record: missing field "frame"', "eval"),
        ("keypoints.jsonl", lambda rec: rec.pop("frame"), 'bad keypoint record: missing field "frame"', "reconstruct"),
    ],
    ids=[
        "duplicate-view",
        "duplicate-joint",
        "unknown-status",
        "joint-index-too-large",
        "joint-index-negative",
        "repeated-keypoint-frame",
        "repeated-skeleton-frame",
        "earlier-skeleton-frame",
        "skeleton-joint-index-too-large",
        "skeleton-joint-index-negative",
        "duplicate-skeleton-joint",
        "fractional-skeleton-joint-index",
        "fractional-skeleton-frame",
        "fractional-view-id",
        "integral-float-keypoint-frame",
        "boolean-joint-index",
        "string-keypoint-coordinate",
        "boolean-keypoint-coordinate",
        "boolean-skeleton-position",
        "string-skeleton-position",
        "duplicate-joint-before-index-99",
        "unknown-status-without-position",
        "two-number-skeleton-position",
        "skeleton-record-array",
        "keypoint-record-array",
        "skeleton-joint-number",
        "skeleton-joints-number",
        "keypoint-view-string",
        "keypoint-views-number",
        "keypoint-joint-array",
        "skeleton-position-number",
        "skeleton-joint-without-idx",
        "keypoint-joint-without-u",
        "skeleton-record-without-frame",
        "keypoint-record-without-frame",
    ],
)
def test_invalid_records_exit_2_with_line(tmp_path, capsys, stream, edit, message, command):
    scene = run_synth(tmp_path, frames=2)
    path = scene / stream
    _edit_record_2(path, edit)
    inputs = {
        "retarget": ["--skeleton", str(path)],
        "eval": ["--skeleton", str(path), "--truth", str(path)],
        "reconstruct": ["--calib", str(scene / "calib.json"), "--keypoints", str(path), "--delta", "100x100x100"],
    }[command]
    assert main([command, *inputs, "--out", str(tmp_path / "out")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"error: {path}:2:" in err and message in err


@pytest.mark.parametrize("lineno", [2, 30])
@pytest.mark.parametrize("command", ["reconstruct", "retarget", "eval", "render-overlay"])
def test_invalid_utf8_exits_2_with_line(tmp_path, capsys, command, lineno):
    """Bytes that are not UTF-8 exit 2 and name their line, also past the
    first block that the reader decodes ahead of its lines."""
    scene = run_synth(tmp_path, frames=40)
    stream = scene / ("keypoints.jsonl" if command in ("reconstruct", "render-overlay") else "truth.jsonl")
    lines = stream.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = lines[lineno - 1][:20] + b"\xff\xfe" + lines[lineno - 1][20:]
    path = tmp_path / f"bad_{stream.name}"
    path.write_bytes(b"".join(lines))
    calib, truth = ["--calib", str(scene / "calib.json")], str(scene / "truth.jsonl")
    inputs = {
        "reconstruct": [*calib, "--keypoints", str(path), "--delta", "100x100x100"],
        "retarget": ["--skeleton", str(path)],
        "eval": ["--skeleton", str(path), "--truth", truth],
        "render-overlay": [*calib, "--keypoints", str(path), "--skeleton", truth],
    }[command]
    assert main([command, *inputs, "--out", str(tmp_path / "out")]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {path}:{lineno}: invalid UTF-8: invalid start byte\n"
    left = [p for p in tmp_path.iterdir() if p.name not in ("scene", path.name)]
    assert all(p.is_dir() and not any(p.iterdir()) for p in left), left  # no output, at most an empty overlay directory


@pytest.mark.parametrize(
    "command, stream",
    [
        ("reconstruct", "keypoints"),
        ("retarget", "skeleton"),
        ("eval", "skeleton"),
        ("eval", "truth"),
        ("eval", "keypoints"),
        ("render-overlay", "keypoints"),
        ("render-overlay", "skeleton"),
    ],
)
def test_record_error_before_invalid_utf8_is_reported_first(tmp_path, capsys, command, stream):
    """A bad record on line 1 is the error reported, not the bytes that are
    not UTF-8 on line 2, in every stream that each command reads."""
    scene = run_synth(tmp_path, frames=3)
    src = scene / ("keypoints.jsonl" if stream == "keypoints" else "truth.jsonl")
    lines = src.read_bytes().splitlines(keepends=True)
    path = tmp_path / f"bad_{src.name}"
    path.write_bytes(b"not json\n" + lines[1][:20] + b"\xff" + lines[1][20:] + b"".join(lines[2:]))
    paths = {name: str(scene / f"{name}.jsonl") for name in ("keypoints", "truth")}
    paths["skeleton"] = paths["truth"]
    paths[stream] = str(path)
    calib = ["--calib", str(scene / "calib.json")]
    inputs = {
        "reconstruct": [*calib, "--keypoints", paths["keypoints"], "--delta", "100x100x100"],
        "retarget": ["--skeleton", paths["skeleton"]],
        "eval": ["--skeleton", paths["skeleton"], "--truth", paths["truth"], *calib, "--keypoints", paths["keypoints"]],
        "render-overlay": [*calib, "--keypoints", paths["keypoints"], "--skeleton", paths["skeleton"]],
    }[command]
    assert main([command, *inputs, "--out", str(tmp_path / "out")]) == EXIT_PARSE
    record = "keypoint" if stream == "keypoints" else "skeleton"
    assert capsys.readouterr().err.startswith(f"error: {path}:1: bad {record} record: ")


@pytest.mark.parametrize(
    "command, broken, code",
    [
        ("reconstruct", "keypoints", EXIT_PARSE),
        ("retarget", "skeleton-record", EXIT_PARSE),
        ("render-overlay", "keypoints", EXIT_PARSE),
        ("render-overlay", "skeleton", EXIT_MISMATCH),
    ],
    ids=["reconstruct-bad-line-2", "retarget-bad-line-2", "overlay-bad-line-2", "overlay-skeleton-short"],
)
def test_failed_run_leaves_no_partial_output(tmp_path, capsys, monkeypatch, command, broken, code):
    """A run that fails after its first frame removes what it wrote."""
    # One frame per chunk, so retarget writes frame 0 before it reads line 2.
    monkeypatch.setattr(retarget, "CHUNK_FRAMES", 1)
    scene = run_synth(tmp_path, frames=3)
    keypoints, skeleton = scene / "keypoints.jsonl", scene / "truth.jsonl"
    if broken == "keypoints":
        _edit_record_2(keypoints, lambda rec: rec["views"][0]["joints"][0].update(u="x"))
    elif broken == "skeleton-record":
        _edit_record_2(skeleton, lambda rec: rec["joints"][3].update(idx=3.5))
    else:
        skeleton = _pick_lines(skeleton, tmp_path / "short.jsonl", [0, 1])
    out = tmp_path / "out"
    inputs = {
        "reconstruct": ["--calib", str(scene / "calib.json"), "--keypoints", str(keypoints), "--delta", "100x100x100"],
        "retarget": ["--skeleton", str(skeleton)],
        "render-overlay": ["--calib", str(scene / "calib.json"), "--keypoints", str(keypoints), "--skeleton", str(skeleton)],
    }[command]
    assert main([command, *inputs, "--out", str(out)]) == code
    assert "error:" in capsys.readouterr().err
    assert sorted(tmp_path.glob("out*")) == []  # neither the output, its temporary sibling nor the directory made for it


@pytest.mark.parametrize("made", [0, 2])
@pytest.mark.parametrize("command", ["reconstruct", "render-overlay"])
def test_failed_run_removes_the_directories_it_made(tmp_path, capsys, command, made):
    """A run that exits 2 on keypoints naming an uncalibrated view removes the
    output directories it created, and keeps the --out parent that was there
    before it."""
    scene = run_synth(tmp_path, frames=5)
    lines = (scene / "keypoints.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2].replace('"view_id": 4', '"view_id": 9')
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines), encoding="utf-8")
    existing = tmp_path / "existing"
    existing.mkdir()
    parent = existing.joinpath(*["new"] * made)
    inputs = {
        "reconstruct": ["--calib", str(scene / "calib.json"), "--keypoints", str(bad), "--delta", "100x100x100",
                        "--out", str(parent / "skel.jsonl")],
        "render-overlay": ["--calib", str(scene / "calib.json"), "--keypoints", str(bad),
                           "--skeleton", str(scene / "truth.jsonl"), "--out", str(parent / "overlays")],
    }[command]
    assert main([command, *inputs]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {bad}:3: bad keypoint record: view 9 is not in the calibration\n"
    assert list(existing.iterdir()) == []


def test_directory_removes_only_the_empty_directories_it_made(tmp_path):
    (tmp_path / "a").mkdir()
    with pytest.raises(RuntimeError):
        with cli._directory(tmp_path / "a" / "b" / "c" / "d"):
            (tmp_path / "a" / "b" / "kept.txt").write_text("x", encoding="utf-8")
            raise RuntimeError("failed")
    assert [p.name for p in (tmp_path / "a" / "b").iterdir()] == ["kept.txt"]


@pytest.mark.parametrize(
    "command, out",
    [pytest.param(command, out, id=f"{command}-{name}")
     for command in ("reconstruct", "retarget", "eval")
     for out, name in (("", "empty"), (".", "dot"), ("/", "root"))]
    + [pytest.param(command, "", id=f"{command}-empty") for command in ("synth", "render-overlay")],
)
def test_out_naming_no_file_exits_2(tmp_path, capsys, monkeypatch, command, out):
    """An --out with no file name, or for the commands that write into a
    directory an empty one, exits 2 with an error line naming --out, before
    anything is written."""
    scene = run_synth(tmp_path, frames=2)
    monkeypatch.chdir(tmp_path)
    s = lambda name: str(scene / name)
    inputs = {
        "synth": ["--preset", "walk"],
        "reconstruct": ["--calib", s("calib.json"), "--keypoints", s("keypoints.jsonl"), "--delta", "100x100x100"],
        "retarget": ["--skeleton", s("truth.jsonl")],
        "eval": ["--skeleton", s("truth.jsonl"), "--truth", s("truth.jsonl")],
        "render-overlay": ["--calib", s("calib.json"), "--keypoints", s("keypoints.jsonl"), "--skeleton", s("truth.jsonl")],
    }[command]
    names = "directory" if command in ("synth", "render-overlay") else "file"
    capsys.readouterr()
    assert main([command, *inputs, "--out", out]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: --out {out!r} names no {names}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["scene"]


def _overflowing_skeletons(scene, path, frames=3):
    """The scene's first truth frames with the head at x = 1e308 and the neck
    at x = -1e308: finite numbers whose distance overflows to inf."""
    skeletons = list(mio.read_skeletons(scene / "truth.jsonl"))[:frames]
    for skel in skeletons:
        skel.positions[0, 0], skel.positions[1, 0] = 1e308, -1e308
    mio.write_skeletons(path, skeletons)
    return path


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_retarget_overflowing_bone_falls_back(tmp_path):
    """A bone whose length overflows lacks data: it falls back, and no NaN or
    Infinity token reaches anim.jsonl."""
    scene = run_synth(tmp_path, frames=3)
    skel = _overflowing_skeletons(scene, tmp_path / "huge.jsonl")
    anim = tmp_path / "anim.jsonl"
    assert main(["retarget", "--skeleton", str(skel), "--out", str(anim)]) == EXIT_OK
    lines = anim.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    for line in lines:
        rec = mio.DECODER.decode(line)  # rejects NaN and Infinity
        statuses = {b["name"]: b["status"] for b in rec["bones"]}
        assert statuses["head"] == "fell_back" and statuses["l_upper_leg"] == "ok"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("with_keypoints", [False, True], ids=["3d", "2d"])
def test_eval_non_finite_error_exits_2(tmp_path, capsys, with_keypoints):
    """A frame whose 3D or reprojection error is not finite exits 2 naming the
    frame, and writes no report."""
    scene = run_synth(tmp_path, frames=3)
    huge = _overflowing_skeletons(scene, tmp_path / "huge.jsonl")
    s = lambda name: str(scene / name)
    if with_keypoints:  # the skeleton against itself: a 3D error of 0, and an inf reprojection
        inputs = ["--truth", str(huge), "--calib", s("calib.json"), "--keypoints", s("keypoints.jsonl")]
        message = "frame 0: reprojection error in view 0 is not finite"
    else:
        inputs = ["--truth", s("truth.jsonl")]
        message = "frame 0: 3D error against"
    out = tmp_path / "out" / "report"
    assert main(["eval", "--skeleton", str(huge), *inputs, "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"error: {huge}: {message}" in err
    assert not out.parent.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("first", [0, 2])
def test_overlay_non_finite_reprojection_exits_2(tmp_path, capsys, first):
    """A joint whose reprojection overflows to inf exits 2 naming the first
    such frame and view, and leaves no SVG with an inf coordinate behind."""
    scene = run_synth(tmp_path, frames=3)
    huge = _overflowing_skeletons(scene, tmp_path / "huge.jsonl")
    truth, overflowing = list(mio.read_skeletons(scene / "truth.jsonl")), list(mio.read_skeletons(huge))
    mio.write_skeletons(huge, truth[:first] + overflowing[first:])  # frames before `first` stay finite
    out = tmp_path / "overlay"
    inputs = ["--calib", str(scene / "calib.json"), "--keypoints", str(scene / "keypoints.jsonl"), "--skeleton", str(huge)]
    assert main(["render-overlay", *inputs, "--out", str(out)]) == EXIT_PARSE
    assert f"error: {huge}: frame {first}: reprojection in view 0 is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_overlay_failing_on_any_error_leaves_no_svg(tmp_path, monkeypatch):
    """render-overlay removes its SVGs, and the directory it made for them,
    on any failure, not only on the ones that exit 2 or 3."""
    scene = run_synth(tmp_path, frames=2)
    calls, write_bytes = [], cli._write_bytes

    def third_fails(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("writer failed")
        return write_bytes(*args)

    monkeypatch.setattr(cli, "_write_bytes", third_fails)
    out = tmp_path / "ovl"
    with pytest.raises(RuntimeError):
        main(["render-overlay", "--calib", str(scene / "calib.json"), "--keypoints", str(scene / "keypoints.jsonl"),
              "--skeleton", str(scene / "truth.jsonl"), "--out", str(out)])
    assert len(calls) == 3
    assert not out.exists()


def test_overlay_svgs_are_the_oracles_bytes(tmp_path):
    """Every SVG that render-overlay writes, over two reprojection chunks of a
    gappy stream whose keypoint frames list their views in shuffled order and
    in one frame list a view with no detections, is the element-by-element
    oracle's string as UTF-8 bytes."""
    frames = 20
    assert frames > cli.REPROJECT_CHUNK_FRAMES
    scene = run_synth(tmp_path, frames=frames, noise="1", dropout="0.05")
    skel = tmp_path / "skel.jsonl"
    inputs = ["--calib", str(scene / "calib.json"), "--keypoints", str(scene / "keypoints.jsonl")]
    assert main(["reconstruct", *inputs, "--delta", "20x20x20", "--out", str(skel)]) == EXIT_OK
    keypoints = tmp_path / "keypoints.jsonl"
    records = [json.loads(line) for line in (scene / "keypoints.jsonl").read_text(encoding="utf-8").splitlines()]
    rng = np.random.default_rng(3)
    for rec in records:
        rec["views"] = [rec["views"][i] for i in rng.permutation(len(rec["views"]))]
    empty = records[cli.REPROJECT_CHUNK_FRAMES + 1]
    empty["views"][2]["joints"] = []
    keypoints.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    out = tmp_path / "overlay"
    assert main(["render-overlay", "--calib", str(scene / "calib.json"), "--keypoints", str(keypoints),
                 "--skeleton", str(skel), "--out", str(out)]) == EXIT_OK
    cameras = {c.id: c for c in mio.load_cameras(scene / "calib.json")}
    expected = {}
    for obs, est in zip(mio.read_keypoints(keypoints, cameras), mio.read_skeletons(skel), strict=True):
        for r, view_id in enumerate(obs.view_ids):
            cam = cameras[view_id]
            svg = overlay_svg(cam, obs.table[r, :, :2], project(est.positions, cam))
            expected[f"frame_{obs.frame:04d}_view_{view_id}.svg"] = svg.encode()
    assert len(expected) == frames * 5
    assert b'fill="red"' not in expected[f"frame_{empty['frame']:04d}_view_{empty['views'][2]['view_id']}.svg"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == expected


def test_overlay_write_failure_exits_2_and_leaves_no_svg(tmp_path, capsys, monkeypatch):
    """A write that fails on the third SVG (a full disk) exits 2 with an
    error line naming that SVG and removes the SVGs written before it."""
    scene = run_synth(tmp_path, frames=2)
    calls, write = [], os.write

    def full_on_third_file(fd, data):  # each SVG takes one write
        calls.append(fd)
        if len(calls) == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write(fd, data)

    monkeypatch.setattr(cli.os, "write", full_on_third_file)
    out = tmp_path / "ovl"
    code = main(["render-overlay", "--calib", str(scene / "calib.json"), "--keypoints", str(scene / "keypoints.jsonl"),
                 "--skeleton", str(scene / "truth.jsonl"), "--out", str(out)])
    monkeypatch.undo()
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {out / 'frame_0000_view_2.svg'}: {os.strerror(errno.ENOSPC)}\n"
    assert len(calls) == 3
    assert not out.exists()


@pytest.mark.parametrize("command", ["reconstruct", "retarget", "eval"])
def test_output_parent_directory_is_created(tmp_path, command):
    scene = run_synth(tmp_path, frames=2)
    out = tmp_path / "new" / "dir" / "out.jsonl"
    s = lambda name: str(scene / name)
    inputs = {
        "reconstruct": ["--calib", s("calib.json"), "--keypoints", s("keypoints.jsonl"), "--delta", "100x100x100"],
        "retarget": ["--skeleton", s("truth.jsonl")],
        "eval": ["--skeleton", s("truth.jsonl"), "--truth", s("truth.jsonl")],
    }[command]
    assert main([command, *inputs, "--out", str(out)]) == EXIT_OK
    written = ["out.csv", "out.json"] if command == "eval" else ["out.jsonl"]
    assert sorted(p.name for p in out.parent.iterdir()) == written


def test_output_removes_its_temporary_file_when_the_rename_fails(tmp_path):
    taken = tmp_path / "taken"
    taken.mkdir()  # a directory where the output file should go
    with pytest.raises(OSError):
        with _output(taken) as part:
            part.write_text("x", encoding="utf-8")
    assert list(tmp_path.iterdir()) == [taken]


def test_reconstruct_split_at_uneven_points_writes_the_same_bytes(tmp_path):
    """Frames are reconstructed independently: a keypoint file reconstructed
    in pieces gives, concatenated, the bytes of one run over the whole file."""
    scene = run_synth(tmp_path, frames=12, noise="1", dropout="0.05")
    lines = (scene / "keypoints.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)

    def reconstruct(keypoints, out):
        assert main([
            "reconstruct", "--calib", str(scene / "calib.json"), "--keypoints", str(keypoints),
            "--delta", "20x20x20", "--out", str(out),
        ]) == EXIT_OK
        return out.read_bytes()

    whole = reconstruct(scene / "keypoints.jsonl", tmp_path / "whole.jsonl")
    pieces = []
    for i, (start, stop) in enumerate([(0, 3), (3, 10), (10, 12)]):
        part = tmp_path / f"keypoints_{i}.jsonl"
        part.write_text("".join(lines[start:stop]), encoding="utf-8")
        pieces.append(reconstruct(part, tmp_path / f"skel_{i}.jsonl"))
    assert whole.count(b"\n") == 12 and STATUS_NO_CONSENSUS.encode() in whole
    assert b"".join(pieces) == whole


def test_reconstruct_chunks_write_the_bytes_of_single_frames(tmp_path, capsys, monkeypatch):
    """Frames estimated three to a search give the bytes of one frame at a
    time, and an uncalibrated view in a later chunk still exits 2 and
    leaves nothing behind."""
    scene = run_synth(tmp_path, frames=7, noise="1", dropout="0.05")

    def reconstruct(chunk, keypoints, out):
        monkeypatch.setattr(voxel, "CHUNK_FRAMES", chunk)
        return main([
            "reconstruct", "--calib", str(scene / "calib.json"), "--keypoints", str(keypoints),
            "--delta", "20x20x20", "--out", str(out),
        ])

    assert reconstruct(1, scene / "keypoints.jsonl", tmp_path / "one.jsonl") == EXIT_OK
    assert reconstruct(3, scene / "keypoints.jsonl", tmp_path / "three.jsonl") == EXIT_OK
    one = (tmp_path / "one.jsonl").read_bytes()
    assert one.count(b"\n") == 7 and STATUS_NO_CONSENSUS.encode() in one
    assert (tmp_path / "three.jsonl").read_bytes() == one

    lines = (scene / "keypoints.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    assert '"view_id": 4' in lines[5]
    lines[5] = lines[5].replace('"view_id": 4', '"view_id": 9')
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "out" / "skel.jsonl"
    assert reconstruct(3, bad, out) == EXIT_PARSE
    assert f"error: {bad}:6: bad keypoint record: view 9 is not in the calibration\n" in capsys.readouterr().err
    assert not out.parent.exists()  # neither skel.jsonl, skel.jsonl.part nor the directory made for them


def test_retarget_chunks_write_the_bytes_of_single_frames(tmp_path, monkeypatch):
    """retarget writes the same bytes one frame per chunk, three per chunk and
    at the default chunk length, on a stream whose gaps begin it and span
    chunk boundaries, so that held rotations carry from chunk to chunk."""
    scene = run_synth(tmp_path, frames=8)
    skeletons = list(mio.read_skeletons(scene / "truth.jsonl"))
    # Torso (root 14) at the start, then l_lower_arm (hand 7) over frames 1-3 and r_lower_leg (foot 10) over 3-6.
    missing = {0: (14,), 1: (14, 7), 2: (7,), 3: (7, 10), 4: (10,), 5: (10,), 6: (10,)}
    for f, joints in missing.items():
        skeletons[f].positions[list(joints)] = np.nan
    gappy = tmp_path / "gappy.jsonl"
    mio.write_skeletons(gappy, skeletons)
    outputs = {}
    for chunk in (1, 3, 256):  # 256, the default, holds the whole stream
        monkeypatch.setattr(retarget, "CHUNK_FRAMES", chunk)
        out = tmp_path / f"anim_{chunk}.jsonl"
        assert main(["retarget", "--skeleton", str(gappy), "--out", str(out)]) == EXIT_OK
        outputs[chunk] = out.read_bytes()
    assert outputs[1].count(b"\n") == 8 and outputs[1].count(b'"status": "fell_back"') == 2 + 3 + 4
    assert outputs[3] == outputs[1] and outputs[256] == outputs[1]


def test_eval_and_overlay_chunks_write_the_bytes_of_single_frames(tmp_path, monkeypatch):
    """eval and render-overlay give the same bytes one frame per projection
    as at the default chunk length, on a gappy stream longer than one chunk
    whose keypoint frames list the views in any order or leave one out."""
    frames = cli.REPROJECT_CHUNK_FRAMES + 6
    scene = run_synth(tmp_path, frames=frames, noise="1", dropout="0.05")
    skel = tmp_path / "skel.jsonl"
    assert main([
        "reconstruct", "--calib", str(scene / "calib.json"), "--keypoints", str(scene / "keypoints.jsonl"),
        "--delta", "20x20x20", "--out", str(skel),
    ]) == EXIT_OK
    assert STATUS_NO_CONSENSUS.encode() in skel.read_bytes()
    keypoints = tmp_path / "keypoints.jsonl"
    records = [json.loads(line) for line in (scene / "keypoints.jsonl").read_text(encoding="utf-8").splitlines()]
    records[3]["views"].reverse()
    del records[frames - 2]["views"][1]
    keypoints.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")

    def outputs(chunk):
        monkeypatch.setattr(cli, "REPROJECT_CHUNK_FRAMES", chunk)
        out = tmp_path / f"chunk_{chunk}"
        inputs = ["--calib", str(scene / "calib.json"), "--keypoints", str(keypoints), "--skeleton", str(skel)]
        assert main(["eval", *inputs, "--truth", str(scene / "truth.jsonl"), "--out", str(out / "report")]) == EXIT_OK
        assert main(["render-overlay", *inputs, "--out", str(out / "overlay")]) == EXIT_OK
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    default = outputs(cli.REPROJECT_CHUNK_FRAMES)
    assert len(default) == 2 + frames * 5 - 1
    assert json.loads(default[Path("report.json")])["frame_count"] == frames
    assert outputs(1) == default
    # The edited frames' overlays are those of one projection per view.
    cameras = {c.id: c for c in mio.load_cameras(scene / "calib.json")}
    skeletons, observed = list(mio.read_skeletons(skel)), list(mio.read_keypoints(keypoints, cameras))
    for f in (3, frames - 2):
        for r, view_id in enumerate(observed[f].view_ids):
            cam = cameras[view_id]
            svg = render_overlay_svg(cam, observed[f].table[r, :, :2], project(skeletons[f].positions, cam))
            assert default[Path(f"overlay/frame_{f:04d}_view_{view_id}.svg")] == svg.encode()


def test_eval_reports_are_the_bytes_of_a_per_frame_oracle_loop(tmp_path, capsys):
    """eval's .json and .csv, over three reprojection chunks of a gappy stream
    whose keypoint frames list their views in shuffled order or give a view no
    detections, and with one estimated frame that has no ok joint, are the
    bytes _write_report gives for a per-frame loop over the oracle."""
    frames = 37
    assert 2 * cli.REPROJECT_CHUNK_FRAMES < frames < 3 * cli.REPROJECT_CHUNK_FRAMES
    scene = run_synth(tmp_path, frames=frames, noise="1", dropout="0.05")
    calib, truth = scene / "calib.json", scene / "truth.jsonl"
    skel = tmp_path / "skel.jsonl"
    assert main(["reconstruct", "--calib", str(calib), "--keypoints", str(scene / "keypoints.jsonl"),
                 "--delta", "20x20x20", "--out", str(skel)]) == EXIT_OK
    skeletons = list(mio.read_skeletons(skel))
    skeletons[20].positions[:] = np.nan
    mio.write_skeletons(skel, skeletons)
    records = [json.loads(line) for line in (scene / "keypoints.jsonl").read_text(encoding="utf-8").splitlines()]
    rng = np.random.default_rng(23)
    for rec in records[1::4]:
        rng.shuffle(rec["views"])
    records[30]["views"][2]["joints"] = []
    keypoints = tmp_path / "keypoints.jsonl"
    keypoints.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    out = tmp_path / "eval" / "report"
    assert main(["eval", "--skeleton", str(skel), "--truth", str(truth), "--calib", str(calib),
                 "--keypoints", str(keypoints), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == "warning: frame 20 has no comparable joints; skipped\n"

    cameras = {c.id: c for c in mio.load_cameras(calib)}
    per_frame, frames_used, joint_count, sums, counts = [], [], 0, {}, {}
    for est, tru, obs in zip(skeletons, mio.read_skeletons(truth), mio.read_keypoints(keypoints, cameras), strict=True):
        d = est.positions - tru.positions
        if (mean := mean_length(d)) is not None:
            per_frame.append(mean)
            frames_used.append(est.frame)
            joint_count += int((~np.isnan(d).any(axis=1)).sum())
        for r, view_id in enumerate(obs.view_ids):
            err = mean_length(obs.table[r, :, :2] - project(est.positions, cameras[view_id])[:14])
            if err is not None:
                sums[view_id] = sums.get(view_id, 0.0) + err
                counts[view_id] = counts.get(view_id, 0) + 1
    assert len(per_frame) == frames - 1 and len(sums) == 5
    expected = tmp_path / "oracle" / "report"
    cli._write_report(expected, per_frame, {v: sums[v] / counts[v] for v in sorted(sums)}, joint_count, frames_used)
    for suffix in (".json", ".csv"):
        assert out.with_suffix(suffix).read_bytes() == expected.with_suffix(suffix).read_bytes()


@pytest.mark.parametrize(
    "command, out, failing, code",
    [
        ("retarget", "afile/anim.jsonl", "afile", errno.EEXIST),
        ("render-overlay", "afile", "afile", errno.EEXIST),
        ("synth", "afile", "afile", errno.EEXIST),
        ("reconstruct", "outd/skel", "outd/skel", errno.EISDIR),
        ("render-overlay", "ovl", "ovl/frame_0001_view_2.svg", errno.EISDIR),
    ],
    ids=["retarget-under-a-file", "overlay-onto-a-file", "synth-onto-a-file", "reconstruct-onto-a-directory",
         "overlay-svg-onto-a-directory"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, command, out, failing, code):
    """An --out that cannot be created or replaced exits 2 with the path and
    the system's reason, and leaves no temporary file or partial overlay set."""
    scene = run_synth(tmp_path, frames=2)
    (tmp_path / "afile").write_text("x", encoding="utf-8")
    (tmp_path / "outd" / "skel").mkdir(parents=True)
    (tmp_path / "ovl" / "frame_0001_view_2.svg").mkdir(parents=True)
    s = lambda name: str(scene / name)
    inputs = {
        "retarget": ["--skeleton", s("truth.jsonl")],
        "render-overlay": ["--calib", s("calib.json"), "--keypoints", s("keypoints.jsonl"), "--skeleton", s("truth.jsonl")],
        "synth": ["--preset", "walk", "--frames", "2"],
        "reconstruct": ["--calib", s("calib.json"), "--keypoints", s("keypoints.jsonl"), "--delta", "100x100x100"],
    }[command]
    capsys.readouterr()
    assert main([command, *inputs, "--out", str(tmp_path / out)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {tmp_path / failing}: {os.strerror(code)}\n"
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "x"
    assert list((tmp_path / "outd" / "skel").iterdir()) == []
    assert [p.name for p in (tmp_path / "ovl").iterdir()] == ["frame_0001_view_2.svg"]
    assert list(tmp_path.rglob("*.part")) == []


@pytest.mark.parametrize("command, writer", [("reconstruct", "skeleton_line"), ("retarget", "transform_line")])
def test_failed_write_exits_2_with_the_output_path(tmp_path, capsys, monkeypatch, command, writer):
    """A write that fails with no file name on the error (a full disk) names
    --out in its error line, exits 2 and leaves neither the output nor its
    temporary file."""
    scene = run_synth(tmp_path, frames=2)

    def full_disk(*_):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(mio, writer, full_disk)
    inputs = {
        "reconstruct": ["--calib", str(scene / "calib.json"), "--keypoints", str(scene / "keypoints.jsonl"),
                        "--delta", "100x100x100"],
        "retarget": ["--skeleton", str(scene / "truth.jsonl")],
    }[command]
    out = tmp_path / "out" / "result.jsonl"
    capsys.readouterr()
    assert main([command, *inputs, "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {out}: {os.strerror(errno.ENOSPC)}\n"
    assert not out.parent.exists()  # made for the output, and removed with it


def test_synth_failing_on_its_last_file_leaves_no_partial_scene(tmp_path, capsys, monkeypatch):
    """synth renames its three files only once all of them are written."""
    written = []

    def full_disk(path, skeletons):
        Path(path).write_text("{", encoding="utf-8")  # a partial first line
        written.append(Path(path))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(mio, "write_skeletons", full_disk)
    out = tmp_path / "scene"
    assert main(["synth", "--preset", "walk", "--frames", "2", "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {out}: {os.strerror(errno.ENOSPC)}\n"
    assert [p.name for p in written] == ["truth.jsonl.part"]
    assert not out.exists()


@pytest.mark.parametrize(
    "K, message",
    [
        ([[1000, 1000, 960], [1000, 1000, 540], [0, 0, 1]], "intrinsic must be upper triangular with last row [0, 0, 1]"),
        ([[1000, 0, 960], [0, 1000, 540], [0.001, 0, 1]], "intrinsic must be upper triangular with last row [0, 0, 1]"),
        ([[-1000, 0, 960], [0, 1000, 540], [0, 0, 1]], "intrinsic focal entries must be positive"),
    ],
    ids=["singular", "skewed-last-row", "negative-focal"],
)
def test_unusable_intrinsics_exit_2(tmp_path, capsys, K, message):
    scene = run_synth(tmp_path, frames=1)
    calib = scene / "calib.json"
    entries = json.loads(calib.read_text(encoding="utf-8"))
    entries[1]["K"] = K
    calib.write_text(json.dumps(entries), encoding="utf-8")
    assert main([
        "reconstruct", "--calib", str(calib), "--keypoints", str(scene / "keypoints.jsonl"),
        "--delta", "100x100x100", "--out", str(tmp_path / "o.jsonl"),
    ]) == EXIT_PARSE
    assert f"error: {calib}: invalid camera entry: {message}" in capsys.readouterr().err


def test_camera_without_intrinsics_exits_2_naming_the_field(tmp_path, capsys):
    scene = run_synth(tmp_path, frames=1)
    calib = scene / "calib.json"
    entries = json.loads(calib.read_text(encoding="utf-8"))
    del entries[1]["K"]
    calib.write_text(json.dumps(entries), encoding="utf-8")
    assert main([
        "reconstruct", "--calib", str(calib), "--keypoints", str(scene / "keypoints.jsonl"),
        "--delta", "100x100x100", "--out", str(tmp_path / "o.jsonl"),
    ]) == EXIT_PARSE
    assert capsys.readouterr().err == f'error: {calib}: invalid camera entry: missing field "K"\n'


@pytest.mark.parametrize("field", ["K", "R", "t"])
def test_overflowing_calibration_number_exits_2(tmp_path, capsys, field):
    scene = run_synth(tmp_path, frames=1)
    calib = scene / "calib.json"
    text, n = re.subn(r'("%s": \[+)[^,]+' % field, r"\g<1>1e400", calib.read_text(encoding="utf-8"), count=1)
    assert n == 1
    calib.write_text(text, encoding="utf-8")
    assert main([
        "reconstruct", "--calib", str(calib), "--keypoints", str(scene / "keypoints.jsonl"),
        "--delta", "50x50x50", "--out", str(tmp_path / "o.jsonl"),
    ]) == EXIT_PARSE
    assert f"error: {calib}: invalid camera entry" in capsys.readouterr().err


def _circles(svg_text, color):
    pts = []
    for m in re.finditer(r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="\d+" fill="%s"/>' % color, svg_text):
        pts.append((float(m.group(1)), float(m.group(2))))
    return pts


def test_overlay_markers_coincide_on_noiseless_scene(tmp_path):
    scene = run_synth(tmp_path, frames=1)
    skel = tmp_path / "skel.jsonl"
    main([
        "reconstruct", "--calib", str(scene / "calib.json"),
        "--keypoints", str(scene / "keypoints.jsonl"), "--out", str(skel),
    ])
    overlays = tmp_path / "ov"
    main([
        "render-overlay", "--calib", str(scene / "calib.json"),
        "--keypoints", str(scene / "keypoints.jsonl"), "--skeleton", str(skel),
        "--out", str(overlays),
    ])
    svg = (overlays / "frame_0000_view_0.svg").read_text()
    assert 'viewBox="0 0 1920 1080"' in svg
    red = _circles(svg, "red")
    blue = _circles(svg, "blue")
    assert len(red) == 14
    assert len(blue) == 15  # includes the synthesized root
    for r in red:
        assert min(np.hypot(r[0] - b[0], r[1] - b[1]) for b in blue) < 4.0  # sub-marker distance


def test_overlay_dropped_joint_red_absent_blue_present(tmp_path):
    scene = run_synth(tmp_path, frames=1)
    # Remove joint 0 (head) from every view's detections.
    lines = []
    for frame in mio.read_keypoints(scene / "keypoints.jsonl", {c.id for c in mio.load_cameras(scene / "calib.json")}):
        frame.table[:, 0] = np.nan
        lines.append(frame)
    mio.write_keypoints(scene / "keypoints.jsonl", lines)

    skel = tmp_path / "skel.jsonl"
    main([
        "reconstruct", "--calib", str(scene / "calib.json"),
        "--keypoints", str(scene / "keypoints.jsonl"), "--out", str(skel),
    ])
    # Hand-place the head estimate so the blue marker exists: reuse truth.
    truth = list(mio.read_skeletons(scene / "truth.jsonl"))
    mio.write_skeletons(skel, truth)
    overlays = tmp_path / "ov"
    main([
        "render-overlay", "--calib", str(scene / "calib.json"),
        "--keypoints", str(scene / "keypoints.jsonl"), "--skeleton", str(skel),
        "--out", str(overlays),
    ])
    svg = (overlays / "frame_0000_view_0.svg").read_text()
    assert len(_circles(svg, "red")) == 13
    assert len(_circles(svg, "blue")) == 15


def test_commands_do_not_import_numpy_ma(tmp_path):
    """reconstruct, eval and render-overlay leave numpy.ma unimported.

    numpy imports numpy.ma on first use of np.unique, which adds about 2 MB
    to the resident set of every command; a fresh interpreter shows whether
    a command pulled it in.
    """
    scene = run_synth(tmp_path, frames=3)
    s = lambda name: str(scene / name)
    skel = str(tmp_path / "skel.jsonl")
    common = ["--calib", s("calib.json"), "--keypoints", s("keypoints.jsonl")]
    argvs = [
        ["reconstruct", *common, "--delta", "50x50x50", "--out", skel],
        ["eval", *common, "--skeleton", skel, "--truth", s("truth.jsonl"), "--out", str(tmp_path / "report")],
        ["render-overlay", *common, "--skeleton", skel, "--out", str(tmp_path / "overlay")],
    ]
    script = (
        "import json, sys\n"
        "from mvmocap.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'codes': codes, 'numpy.ma': 'numpy.ma' in sys.modules}))\n"
    )
    src = str(Path(mvmocap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == {"codes": [EXIT_OK] * 3, "numpy.ma": False}


def test_timing_phases_cover_wall_clock(tmp_path, capsys):
    scene = run_synth(tmp_path, frames=5)
    skel = tmp_path / "skel.jsonl"
    assert main([
        "reconstruct", "--calib", str(scene / "calib.json"),
        "--keypoints", str(scene / "keypoints.jsonl"),
        "--timing", "--out", str(skel),
    ]) == EXIT_OK
    timing = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert timing["frames"] == 5
    assert set(timing["phases"]) == {"load_inputs", "parse_inputs", "estimate_3d_joints", "write_output"}
    assert sum(timing["phases"].values()) >= 0.95 * timing["total_ms"]
    assert sum(timing["phases"].values()) <= timing["total_ms"]


# The flags each subcommand reads; argparse adds -h/--help to every one.
FLAGS = {
    "synth": {"--preset", "--frames", "--noise", "--dropout", "--seed", "--out"},
    "reconstruct": {"--calib", "--keypoints", "--out", "--sigma", "--delta", "--volume", "--min-conf", "--timing"},
    "retarget": {"--skeleton", "--out"},
    "eval": {"--skeleton", "--truth", "--calib", "--keypoints", "--out"},
    "render-overlay": {"--calib", "--keypoints", "--skeleton", "--out"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert set(commands) == set(FLAGS)
    for name, sub in commands.items():
        taken = {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        assert taken == FLAGS[name], name


def _subparsers(parser):
    return next(a for a in parser._actions if a.dest == "command").choices


def _described(parser):
    """Each action's flags, destination, default, type, arity, requiredness and help."""
    return [(a.option_strings, a.dest, a.default, a.type, a.nargs, a.const, a.required, a.help) for a in parser._actions]


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_one_subcommand_parser_matches_its_part_of_the_full_one(command):
    alone = _subparsers(build_parser(command))
    full = _subparsers(build_parser())[command]
    assert list(alone) == [command]
    assert _described(alone[command]) == _described(full)
    assert alone[command].format_help() == full.format_help()
    assert alone[command].get_default("func") is full.get_default("func")


@pytest.mark.parametrize("argv", [[], ["bogus"]], ids=["no-command", "unknown-command"])
def test_missing_or_unknown_command_exits_2_listing_every_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    assert "usage: mvmocap [-h] {" + ",".join(FLAGS) + "}" in capsys.readouterr().err


def test_subcommand_help_exits_0_from_argv_and_from_the_command_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["mvmocap", "reconstruct", "--help"])
    for argv in (["reconstruct", "--help"], None):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert "--min-conf" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, extra",
    [
        ("retarget", ["--sigma", "4"]),
        ("retarget", ["--config", "c.json"]),
        ("eval", ["--delta", "10x10x10"]),
        ("eval", ["--timing"]),
        ("render-overlay", ["--truth", "t.jsonl"]),
        ("reconstruct", ["--sigma", "2.5"]),
    ],
    ids=["retarget-sigma", "retarget-config", "eval-delta", "eval-timing", "overlay-truth", "fractional-sigma"],
)
def test_unread_or_mistyped_flag_exits_2(tmp_path, capsys, command, extra):
    """A flag the subcommand does not read, or a value of the wrong type, exits 2 before any work."""
    scene = run_synth(tmp_path, frames=2)
    (tmp_path / "c.json").write_text("{}", encoding="utf-8")
    s = lambda name: str(scene / name)
    inputs = {
        "reconstruct": ["--calib", s("calib.json"), "--keypoints", s("keypoints.jsonl")],
        "retarget": ["--skeleton", s("truth.jsonl")],
        "eval": ["--skeleton", s("truth.jsonl"), "--truth", s("truth.jsonl")],
        "render-overlay": ["--calib", s("calib.json"), "--keypoints", s("keypoints.jsonl"), "--skeleton", s("truth.jsonl")],
    }[command]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, *extra, "--out", str(out)])
    assert exc.value.code == EXIT_PARSE
    assert extra[0] in capsys.readouterr().err
    assert sorted(tmp_path.glob("out*")) == []
