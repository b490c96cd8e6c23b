"""Fuzz the JSON-lines readers with mutated valid records.

Each example takes a valid line of a synthetic scene's keypoint or skeleton
stream and breaks one field: drops a key, gives a value the wrong type,
writes a non-finite token or a number too large for a double, changes the
length of a position, or gives a skeleton joint an unknown status. Both
streams go through `cli.main`, which must exit 2 with
`error: <path>:<line>:`.
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

NUMBER_RETYPES = ("x", None, {}, [])
STATUS_RETYPES = (None, 1, {}, [])
LIST_RETYPES = ("x", None, 5)
ARRAY_RETYPES = ("x", None, 5, {}, [])
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    scene_dir = root / "scene"
    assert main(["synth", "--preset", "walk", "--frames", "2", "--seed", "3", "--out", str(scene_dir)]) == 0
    return {
        "root": root,
        "calib": scene_dir / "calib.json",
        "keypoints": (scene_dir / "keypoints.jsonl").read_text().splitlines(),
        "skeletons": (scene_dir / "truth.jsonl").read_text().splitlines(),
    }


def _sites(stream, rec):
    """(container, key, kind) for every field a mutation may target."""
    items = {"keypoints": "views", "skeletons": "joints"}[stream]
    sites = [(rec, "frame", "number"), (rec, items, "list")]
    for item in rec[items]:
        if stream == "keypoints":
            sites += [(item, "view_id", "number"), (item, "joints", "list")]
            for j in item["joints"]:
                sites += [(j, key, "number") for key in ("idx", "u", "v", "c")]
        else:
            sites += [(item, "idx", "number"), (item, "status", "status"), (item, "p", "vector")]
    return sites


def _bad_number(draw):
    return draw(st.sampled_from(NON_FINITE + (HUGE,)))


def _mutate(draw, stream, rec):
    """Break one field of rec in place."""
    container, key, kind = draw(st.sampled_from(_sites(stream, rec)))
    actions = ["drop", "retype"]
    if kind == "number":
        actions.append("bad number")
    if kind == "vector":
        actions += ["bad element", "wrong length"]
    if kind == "status":
        actions.append("unknown status")
    action = draw(st.sampled_from(actions))
    if action == "drop":
        del container[key]
    elif action == "retype":
        retypes = {"number": NUMBER_RETYPES, "list": LIST_RETYPES, "status": STATUS_RETYPES}.get(kind, ARRAY_RETYPES)
        container[key] = draw(st.sampled_from(retypes))
    elif action == "bad number":
        container[key] = _bad_number(draw)
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
def broken_stream(draw, stream, lines):
    """Stream text with one record broken, and the 1-based line of the break."""
    lines = list(lines)
    lineno = draw(st.integers(1, len(lines)))
    rec = json.loads(lines[lineno - 1])
    _mutate(draw, stream, rec)
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
    text, lineno = data.draw(broken_stream(stream, scene[stream]))
    path = scene["root"] / f"broken_{stream}.jsonl"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*_command(stream, path, scene), "--out", str(scene["root"] / "out.jsonl")])
    assert code == EXIT_PARSE, text
    assert err.getvalue().startswith(f"error: {path}:{lineno}:"), err.getvalue()
