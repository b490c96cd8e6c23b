"""Fuzz the JSON-lines readers with mutated valid records.

Each example takes a valid line of a synthetic scene's keypoint or skeleton
stream and breaks one field: drops a key, gives a value the wrong type,
writes a non-finite token, a number too large for a double, a numeric
string or a bool where a number belongs, puts a fraction, a float or a bool
where an integer belongs, changes the length of
a position, gives a skeleton joint an unknown status, gives a
joint an index outside 0-13 (keypoints) or 0-14 (skeletons) or the index of
another joint of the same list, gives a keypoint view an id the calibration
does not list, or gives a record after the first a frame index not greater
than the one before it. Both streams go through
`cli.main`, which must exit 2 with `error: <path>:<line>:`.

The calibration has one site, a singular K that keeps positive focal
entries and K[2][2] = 1: one camera's second row becomes a positive
multiple of its first, skew included. `reconstruct` must exit 2 with
`error: <path>: invalid camera entry`.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvmocap.cli import EXIT_PARSE, main

# Placeholder replaced by an overflowing literal after json.dumps.
HUGE = "__huge__"

# A numeric string or a bool would read as a number through float().
NUMBER_RETYPES = ("x", "512.5", True, False, None, {}, [])
STATUS_RETYPES = (None, 1, {}, [])
LIST_RETYPES = ("x", None, 5)
ARRAY_RETYPES = ("x", "xyz", None, 5, {}, [], [True, 0.0, 0.0])
NON_FINITE = (float("nan"), float("inf"), float("-inf"))
# Fields that must be JSON integers.
INTEGER_KINDS = ("frame", "joint index", "view id")


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    scene_dir = root / "scene"
    assert main(["synth", "--preset", "walk", "--frames", "2", "--seed", "3", "--out", str(scene_dir)]) == 0
    return {
        "root": root,
        "calib": scene_dir / "calib.json",
        "calibrated": {camera["id"] for camera in json.loads((scene_dir / "calib.json").read_text())},
        "keypoints": (scene_dir / "keypoints.jsonl").read_text().splitlines(),
        "skeletons": (scene_dir / "truth.jsonl").read_text().splitlines(),
    }


# Joint indices each stream accepts: 0 up to, not including, this.
JOINT_LIMIT = {"keypoints": 14, "skeletons": 15}


def _sites(stream, rec):
    """(container, key, kind, siblings) for every field a mutation may target.

    siblings are the other joints of the list a joint index belongs to.
    """
    items = {"keypoints": "views", "skeletons": "joints"}[stream]
    sites = [(rec, "frame", "frame", None), (rec, items, "list", None)]
    joint_lists = [item["joints"] for item in rec[items]] if stream == "keypoints" else [rec["joints"]]
    for joints in joint_lists:
        sites += [(j, "idx", "joint index", [o for o in joints if o is not j]) for j in joints]
    for item in rec[items]:
        if stream == "keypoints":
            sites += [(item, "view_id", "view id", None), (item, "joints", "list", None)]
            for j in item["joints"]:
                sites += [(j, key, "number", None) for key in ("u", "v", "c")]
        else:
            sites += [(item, "status", "status", None), (item, "p", "vector", None)]
    return sites


def _bad_number(draw):
    return draw(st.sampled_from(NON_FINITE + (HUGE, "1.5", True, False)))


def _mutate(draw, stream, rec, previous_frame, calibrated):
    """Break one field of rec in place; previous_frame is None on the first line,
    and calibrated holds the camera ids of the calibration."""
    # A kind first, then a site of it: the few frame and view id sites of a
    # record are drawn as often as its hundreds of joint fields.
    sites = _sites(stream, rec)
    kind = draw(st.sampled_from(sorted({site[2] for site in sites})))
    container, key, kind, siblings = draw(st.sampled_from([site for site in sites if site[2] == kind]))
    actions = ["drop", "retype"]
    if kind == "number" or kind in INTEGER_KINDS:
        actions.append("bad number")
    if kind in INTEGER_KINDS:
        actions.append("not an integer")
    if kind == "frame" and previous_frame is not None:
        actions.append("out of order")
    if kind == "joint index":
        actions.append("out of range")
        if siblings:
            actions.append("repeat")
    if kind == "view id":
        actions.append("uncalibrated")
    if kind == "vector":
        actions += ["bad element", "wrong length"]
    if kind == "status":
        actions.append("unknown status")
    action = draw(st.sampled_from(actions))
    if action == "drop":
        del container[key]
    elif action == "retype":
        retypes = {"list": LIST_RETYPES, "status": STATUS_RETYPES, "vector": ARRAY_RETYPES}.get(kind, NUMBER_RETYPES)
        container[key] = draw(st.sampled_from(retypes))
    elif action == "bad number":
        container[key] = _bad_number(draw)
    elif action == "not an integer":
        # Close to the valid value, so that int() truncation would pass it.
        fraction = st.floats(0.0, 1.0, exclude_max=True).map(lambda f: container[key] + f)
        container[key] = draw(st.one_of(fraction, st.booleans()))
    elif action == "out of order":
        container[key] = draw(st.integers(max_value=previous_frame))
    elif action == "out of range":
        container[key] = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=JOINT_LIMIT[stream])))
    elif action == "uncalibrated":
        container[key] = draw(st.integers().filter(lambda i: i not in calibrated))
    elif action == "repeat":
        container[key] = draw(st.sampled_from(siblings))["idx"]
    elif action == "unknown status":
        container[key] = draw(st.text().filter(lambda s: s not in ("ok", "no_consensus")))
    else:
        target = container[key]
        if action == "bad element":
            target[draw(st.integers(0, len(target) - 1))] = _bad_number(draw)
        elif draw(st.booleans()):
            target.pop()
        else:
            target.append(0.0)


@st.composite
def broken_stream(draw, stream, lines, calibrated):
    """Stream text with one record broken, and the 1-based line of the break."""
    lines = list(lines)
    lineno = draw(st.integers(1, len(lines)))
    rec = json.loads(lines[lineno - 1])
    _mutate(draw, stream, rec, json.loads(lines[lineno - 2])["frame"] if lineno > 1 else None, calibrated)
    lines[lineno - 1] = json.dumps(rec).replace(f'"{HUGE}"', draw(st.sampled_from(["1e400", "-1e400"])))
    return "\n".join(lines) + "\n", lineno


def _command(stream, path, scene):
    if stream == "keypoints":
        return ["reconstruct", "--calib", str(scene["calib"]), "--keypoints", str(path), "--delta", "200x200x200"]
    return ["retarget", "--skeleton", str(path)]


@pytest.mark.parametrize("stream", ["keypoints", "skeletons"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_broken_record_exits_2_with_line(scene, stream, data):
    text, lineno = data.draw(broken_stream(stream, scene[stream], scene["calibrated"]))
    path = scene["root"] / f"broken_{stream}.jsonl"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*_command(stream, path, scene), "--out", str(scene["root"] / "out.jsonl")])
    assert code == EXIT_PARSE, text
    assert err.getvalue().startswith(f"error: {path}:{lineno}:"), err.getvalue()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_singular_intrinsics_exit_2(scene, data):
    entries = json.loads(scene["calib"].read_text(encoding="utf-8"))
    K = data.draw(st.sampled_from(entries))["K"]
    K[0][1] = data.draw(st.floats(1.0, 5000.0))  # skew
    K[1] = [data.draw(st.floats(0.01, 100.0)) * x for x in K[0]]
    path = scene["root"] / "singular_calib.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    keypoints = scene["calib"].parent / "keypoints.jsonl"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "reconstruct", "--calib", str(path), "--keypoints", str(keypoints), "--delta", "200x200x200",
            "--out", str(scene["root"] / "out.jsonl"),
        ])
    assert code == EXIT_PARSE, K
    assert err.getvalue().startswith(f"error: {path}: invalid camera entry"), err.getvalue()
