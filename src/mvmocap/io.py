"""File formats: calibration JSON, keypoint/skeleton/transform JSON lines.

All record streams are JSON lines so long sequences never need to be
resident in memory. Every writer fills %-templates, floats as %.6f and
integers as %d, so files are byte-identical across platforms and runs; a
float in (-5e-7, 0] is written 0.000000, never -0.000000 (_unsigned_zeros).

Formats:
  calibration  JSON array of {id, K: 3x3, R: 3x3, t: 3, width, height}
  keypoints    one line per frame:
               {"frame": F, "views": [{"view_id": V,
                 "joints": [{"idx": I, "u": U, "v": V, "c": C}, ...]}, ...]}
  skeletons    one line per frame:
               {"frame": F, "joints": [{"idx": I, "status": S, "p": [x, y, z]}, ...]}
               (the "p" entry is omitted for joints without consensus)
  transforms   one line per frame (written only), bones by name:
               {"frame": F, "bones": [{"name": N, "status": S, "T": 4x4}, ...]}
               (each T's translation column is 0 and its bottom row (0, 0, 0, 1))
All matrices are row-major; K is upper triangular with positive focal entries
and last row [0, 0, 1]. Records, cameras, views and joints must be JSON
objects, and "views", "joints", positions and matrices JSON arrays; a reader
names the expected JSON type otherwise. Readers reject NaN and Infinity
tokens; record and calibration numbers must be finite JSON numbers, not
strings or bools, and positions and matrices of the stated length. Frame
indices, view and camera ids, joint indices and image sizes must be JSON
integers: 3.0, 3.7 and true are all rejected. A calibration lists each camera
id once, a keypoint frame each view once and a view each joint once, by an
index in 0-13; a skeleton record lists each joint once, by an index in 0-14,
with status "ok" or "no_consensus". Within a keypoint or skeleton stream the
frame indices strictly increase.

Both readers yield chunks of up to n frames as arrays. A keypoint chunk is a
(k, V, 14, 3) table by calibrated column, each record parsed into place: cell
[f, col, i] holds (u, v, c) of joint i in view ids[col], all NaN where frame
f does not list the view or the view has no detection of it. A skeleton chunk
is (k, 15, 3) positions, row i of a frame for joint i, NaN where it is
"no_consensus" or left out. The writers list views by ascending id and joints
by ascending index, all 15 in a skeleton record.
"""

from __future__ import annotations

import json
import math
import operator
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .geometry import CameraParams
from .retarget import STATUS_FELL_BACK
from .skeleton import BONES, DETECTED_JOINTS, JOINT_NAMES, STATUS_NO_CONSENSUS, STATUS_OK, Skeleton3D
from .voxel import JointObservationFrame


# Width of a keypoint table: one row per detected joint index.
_JOINTS = len(DETECTED_JOINTS)
# Rows of a skeleton record's positions: one per joint index.
_SKELETON_JOINTS = len(JOINT_NAMES)
# The cell value of a joint a record leaves out; read_keypoints tests for it by identity.
_UNLISTED = math.nan
# The cells of a skeleton record before its joints are parsed: every joint left out.
_UNLISTED_SKELETON = [_UNLISTED] * (_SKELETON_JOINTS * 3)
# A record joint's fields, fetched in this order: the first one missing raises KeyError.
_KEYPOINT_FIELDS = operator.itemgetter("idx", "u", "v", "c")
_SKELETON_FIELDS = operator.itemgetter("idx", "status")


class InputParseError(ValueError):
    """Malformed input file; message carries file and line context."""


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} is not allowed")


# Rejects the NaN, Infinity and -Infinity tokens that json accepts by default.
DECODER = json.JSONDecoder(parse_constant=_reject_constant)

# What converting a malformed record raises. OverflowError comes from float()
# of an integer too large for a double, such as 1 followed by 400 zeros.
_RECORD_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def _reason(exc: Exception) -> str:
    """The message of a record error; a KeyError, a field the record lacks, is named as missing."""
    return f'missing field "{exc.args[0]}"' if type(exc) is KeyError else str(exc)


def _integer(value) -> int:
    """value if it is a JSON integer; TypeError for a fraction, a bool or any other type."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


# The types json gives a number. Checked by exact type: a bool is an int,
# and float() would read "512.5" and true as numbers.
_NUMBER_TYPES = frozenset((int, float))


def _numbers(values: list) -> list:
    """values if each of them is a JSON number; TypeError for a string, a bool or any other type."""
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        bad = next(x for x in values if type(x) not in _NUMBER_TYPES)
        raise TypeError(f"expected a number, got {bad!r}")
    return values


def _finite_numbers(value, n: int) -> list:
    """value if it is an array of exactly n finite numbers; TypeError or ValueError otherwise."""
    if type(value) is not list or len(value) != n or not all(map(math.isfinite, _numbers(value))):
        raise ValueError(f"expected an array of {n} finite numbers, got {value!r}")
    return value


# The type json gives an object, checked as _numbers checks numbers.
_OBJECT_TYPES = frozenset((dict,))


def _objects(value, field: str) -> list:
    """value if it is an array of JSON objects; TypeError naming the record's field otherwise."""
    if type(value) is not list or not _OBJECT_TYPES.issuperset(map(type, value)):
        raise TypeError(f'"{field}" is not an array of JSON objects')
    return value


def _joint_table(cells: list, shape: tuple[int, ...]) -> np.ndarray:
    """The decoded values of records, one flat list, as a float array of shape (records, *shape), ending in (joints, 3).

    TypeError for a value that is not a JSON number, OverflowError for an
    integer too large for a double, and ValueError for an infinite one:
    json reads 1e400 as inf, and it has no NaN token, so every NaN is a
    cell the record left out.
    """
    table = np.fromiter(_numbers(cells), dtype=float, count=len(cells)).reshape(-1, *shape)
    if np.isinf(table).any():
        raise ValueError(f"non-finite number for joint {np.argwhere(np.isinf(table))[0, -2]}")
    return table


def _finite_matrix(value, n: int) -> list:
    """value if it is an n x n array of finite numbers; ValueError otherwise."""
    if type(value) is not list or len(value) != n:
        raise ValueError(f"expected an array of {n} rows, got {value!r}")
    return [_finite_numbers(row, n) for row in value]


def _unsigned_zeros(text: str) -> str:
    """text with each "-0.000000", a float in (-5e-7, 0] written with its sign, written "0.000000".
    Every float field has exactly 6 decimals, so "-0.000000" is never part of a longer number."""
    return text.replace("-0.000000", "0.000000")


# -- calibration --------------------------------------------------------


_ROW = "[%.6f, %.6f, %.6f]"
_CAMERA = f'{{"id": %d, "K": [{_ROW}, {_ROW}, {_ROW}], "R": [{_ROW}, {_ROW}, {_ROW}], "t": {_ROW}, "width": %d, "height": %d}}'


def save_cameras(path: str | Path, cameras: list[CameraParams]) -> None:
    entries = ",\n".join(
        _CAMERA % (c.id, *np.hstack([np.ravel(c.intrinsic), np.ravel(c.rotation), np.ravel(c.translation)]).tolist(), *c.resolution)
        for c in cameras
    )
    Path(path).write_text(_unsigned_zeros(f"[\n{entries}\n]\n"), encoding="utf-8")


def load_cameras(path: str | Path) -> list[CameraParams]:
    path = Path(path)
    try:
        data = DECODER.decode(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InputParseError(f"{path}: cannot parse calibration: {exc}") from exc
    if type(data) is not list or not all(type(entry) is dict for entry in data):
        raise InputParseError(f"{path}: calibration is not a JSON array of camera objects")
    try:
        entries = [
            (_integer(entry["id"]), _finite_matrix(entry["K"], 3), _finite_matrix(entry["R"], 3),
             _finite_numbers(entry["t"], 3), (_integer(entry["width"]), _integer(entry["height"])))
            for entry in data
        ]
        rotations = np.array([rotation for _, _, rotation, _, _ in entries], dtype=float).reshape(-1, 3, 3)
        cameras = [CameraParams(i, K, R, t, size) for (i, K, _, t, size), R in zip(entries, _snap_rotations(rotations))]
        ids = [c.id for c in cameras]
        for k, camera_id in enumerate(ids):
            if camera_id in ids[:k]:
                raise ValueError(f"duplicate id {camera_id}")
    except _RECORD_ERRORS as exc:
        raise InputParseError(f"{path}: invalid camera entry: {_reason(exc)}") from exc
    if not cameras:
        raise InputParseError(f"{path}: calibration lists no cameras")
    return cameras


def _snap_rotations(r: np.ndarray) -> np.ndarray:
    """Project file-precision rotations, a (C, 3, 3) stack, back onto exact rotations.

    Serialized matrices carry only 6 decimals, which breaks strict
    orthonormality checks. Matrices further than 1e-4 from orthonormal are
    rejected as genuinely invalid.
    """
    if (np.abs(r @ r.swapaxes(1, 2) - np.eye(3)) > 1e-4).any() or (np.linalg.det(r) < 0).any():
        raise ValueError("R is not a rotation matrix")
    u, _, vt = np.linalg.svd(r)
    return u @ vt


# -- keypoints -----------------------------------------------------------


_KEYPOINT_RECORD = '{"frame": %d, "views": [%s]}'
_KEYPOINT_VIEW = '{"view_id": %d, "joints": [%s]}'
_KEYPOINT_JOINT = '{"idx": %d, "u": %.6f, "v": %.6f, "c": %.6f}'


def keypoint_line(frame: JointObservationFrame) -> str:
    views = []
    for r in np.argsort(frame.view_ids):
        joints = [_KEYPOINT_JOINT % (idx, u, v, c) for idx, (u, v, c) in enumerate(frame.table[r].tolist()) if not math.isnan(c)]
        views.append(_KEYPOINT_VIEW % (frame.view_ids[r], ", ".join(joints)))
    return _unsigned_zeros(_KEYPOINT_RECORD % (frame.frame, ", ".join(views)))


def write_keypoints(path: str | Path, frames: Iterable[JointObservationFrame]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for frame in frames:
            fh.write(keypoint_line(frame) + "\n")


def read_keypoints(path: str | Path, ids: Sequence[int], n: int) -> Iterator[tuple[list[int], list, np.ndarray]]:
    """The keypoint stream at path in chunks of up to n frames (see _chunks): their frame indices, each
    frame's listed columns in file order, and their table by calibrated column, ids holding the
    calibrated camera ids in column order. A view id that ids does not hold is an error."""
    column = {view_id: v for v, view_id in enumerate(ids)}
    unlisted = [_UNLISTED] * (len(ids) * _JOINTS * 3)  # a record's cells before its views are parsed

    def parse(rec: dict, cells: list) -> list[int]:  # the columns of the record's views in file order, its cells by column
        views = _objects(rec["views"], "views")
        listed: list[int] = []
        start = len(cells)
        cells += unlisted
        for view in views:
            view_id = _integer(view["view_id"])
            col = column.get(view_id)
            if col is None:
                raise ValueError(f"view {view_id} is not in the calibration")
            if col in listed:
                raise ValueError(f"view {view_id} listed twice")
            listed.append(col)
            at = start + col * _JOINTS * 3
            for j in _objects(view["joints"], "joints"):
                idx, u, v, c = _KEYPOINT_FIELDS(j)
                if type(idx) is not int:  # as _integer checks
                    raise TypeError(f"expected an integer, got {idx!r}")
                if not 0 <= idx < _JOINTS:
                    raise ValueError(f"joint index {idx} outside 0-{_JOINTS - 1}")
                k = at + idx * 3
                if cells[k + 2] is not _UNLISTED:
                    raise ValueError(f"joint {idx} listed twice in view {view_id}")
                cells[k], cells[k + 1], cells[k + 2] = u, v, c  # no slice: element stores are faster
        return listed

    return _chunks(Path(path), n, "keypoint", (len(ids), _JOINTS, 3), parse)


def _chunks(path: Path, n: int, kind: str, shape: tuple[int, ...], parse: Callable) -> Iterator[tuple[list[int], list, np.ndarray]]:
    """The records at path in chunks of up to n: their frame indices, parse's returns and their (k, *shape) cells.

    parse(rec, cells) checks a record, appends its values to the chunk's flat
    list and returns what the chunk keeps of it; the list is converted once.
    At a bad record, the first in file order whether parsing, the UTF-8 check
    or the conversion finds it, the records before it are yielded and the
    next call raises InputParseError with its line.
    """
    lines = _read_lines(path)
    last = error = None
    while error is None:
        frames, linenos, parsed, cells, ends = [], [], [], [], [0]
        try:
            for lineno, raw in lines:
                try:
                    rec, end = DECODER.raw_decode(raw)
                    if end != len(raw):  # raw is stripped, so decode finds the same value and raises json's "Extra data"
                        DECODER.decode(raw)
                    if type(rec) is not dict:
                        raise TypeError("the record is not a JSON object")
                    frame = _integer(rec["frame"])
                    if last is not None and frame <= last:
                        raise ValueError(f"frame {frame} does not follow frame {last}")
                    parsed.append(parse(rec, cells))
                except _RECORD_ERRORS as exc:
                    error = (lineno, exc)
                    del cells[ends[-1] :]  # the cells of the record that failed
                    break
                last = frame
                frames.append(frame)
                linenos.append(lineno)
                ends.append(len(cells))
                if len(frames) == n:
                    break
        except InputParseError as exc:  # a line that is not UTF-8, or a file that cannot be read
            error = exc
        try:
            table = _joint_table(cells, shape)
        except _RECORD_ERRORS:  # the first record whose values do not convert comes before any later error
            for k in range(len(frames)):
                try:
                    _joint_table(cells[ends[k] : ends[k + 1]], shape)
                except _RECORD_ERRORS as exc:
                    error = (linenos[k], exc)
                    break
            del frames[k:], parsed[k:], cells[ends[k] :]
            table = _joint_table(cells, shape)
        if frames:
            yield frames, parsed, table
        if error is None and len(frames) < n:
            return
    if isinstance(error, InputParseError):
        raise error
    lineno, exc = error
    raise InputParseError(f"{path}:{lineno}: bad {kind} record: {_reason(exc)}") from exc


# -- skeletons ------------------------------------------------------------


_SKELETON_RECORD = '{"frame": %d, "joints": [%s]}'
_OK_JOINT = f'{{"idx": %d, "status": "{STATUS_OK}", "p": {_ROW}}}'
_NO_CONSENSUS_JOINT = f'{{"idx": %d, "status": "{STATUS_NO_CONSENSUS}"}}'


def skeleton_line(frame: int, positions: np.ndarray) -> str:
    """The skeleton record of one frame's (15, 3) positions: a finite row is an "ok" joint."""
    parts = [
        _OK_JOINT % (idx, x, y, z) if math.isfinite(x) and math.isfinite(y) and math.isfinite(z) else _NO_CONSENSUS_JOINT % idx
        for idx, (x, y, z) in enumerate(positions.tolist())
    ]
    return _unsigned_zeros(_SKELETON_RECORD % (frame, ", ".join(parts)))


def write_skeletons(path: str | Path, skeletons: Iterable[Skeleton3D]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for skel in skeletons:
            fh.write(skeleton_line(skel.frame, skel.positions) + "\n")


def read_skeletons(path: str | Path, n: int) -> Iterator[tuple[list[int], np.ndarray]]:
    """The skeleton stream at path in chunks of up to n frames (see _chunks): their frame indices and positions."""

    def parse(rec: dict, cells: list) -> None:  # the record's (15, 3) positions, joint by joint
        listed = [False] * _SKELETON_JOINTS
        at = len(cells)
        cells += _UNLISTED_SKELETON
        for j in _objects(rec["joints"], "joints"):
            idx, status = _SKELETON_FIELDS(j)
            if type(idx) is not int:  # as _integer checks
                raise TypeError(f"expected an integer, got {idx!r}")
            if not 0 <= idx < _SKELETON_JOINTS:
                raise ValueError(f"joint index {idx} outside 0-{_SKELETON_JOINTS - 1}")
            if listed[idx]:
                raise ValueError(f"joint {idx} listed twice")
            listed[idx] = True
            if status == STATUS_OK:
                p = j["p"]
                if type(p) is not list or len(p) != 3:
                    raise ValueError(f"expected an array of 3 numbers, got {p!r}")
                k = at + idx * 3
                cells[k], cells[k + 1], cells[k + 2] = p
            elif status != STATUS_NO_CONSENSUS:
                raise ValueError(f"unknown status {status!r}")

    for frames, _, positions in _chunks(Path(path), n, "skeleton", (_SKELETON_JOINTS, 3), parse):
        yield frames, positions


# -- bone transforms -------------------------------------------------------


# The bones' rows in BONES order, listed in the record's name order, and each one's %-template by its
# ok flag. T's translation column and bottom row are literal text: they are always exactly 0 and 1.
_BONE_ORDER = sorted(range(len(BONES)), key=lambda b: BONES[b].name)
_T = "[" + "[%.6f, %.6f, %.6f, 0.000000], " * 3 + "[0.000000, 0.000000, 0.000000, 1.000000]]"
_BONE = [[f'{{"name": "{BONES[b].name}", "status": "{status}", "T": {_T}}}' for status in (STATUS_FELL_BACK, STATUS_OK)]
         for b in _BONE_ORDER]


def transform_line(frame: int, numbers: list[float], flags: list[bool]) -> str:
    """The transform record of one frame: numbers holds the bones' rotation
    entries, row-major, and flags their ok flags, bones in name order."""
    bones = ", ".join([pieces[ok] for pieces, ok in zip(_BONE, flags)])
    return _unsigned_zeros(('{"frame": %d, "bones": [' + bones + "]}") % (frame, *numbers))


def write_transforms(path: str | Path, chunks: Iterable[tuple[Sequence[int], np.ndarray, np.ndarray]]) -> None:
    """Write the records of retarget.retarget_chunks' chunks, one .tolist() per array and chunk."""
    with open(path, "w", encoding="utf-8") as fh:
        for frames, rot, ok in chunks:
            numbers = rot[:, _BONE_ORDER].reshape(len(frames), -1).tolist()
            flags = ok[:, _BONE_ORDER].tolist()
            fh.writelines(transform_line(*record) + "\n" for record in zip(frames, numbers, flags))


def _read_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, text) of each non-blank line of path, numbered as in the file, from 1.
    A line that is not UTF-8 raises InputParseError when it is reached, after any earlier line's error."""
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.isascii():  # only such a line can hold an escaped byte
                    try:
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise InputParseError(f"{path}:{lineno}: invalid UTF-8: {exc.reason}") from exc
                line = line.strip()
                if line:
                    yield lineno, line
    except OSError as exc:
        raise InputParseError(f"{path}: cannot read: {exc}") from exc
