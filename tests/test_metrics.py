import math

import numpy as np
import pytest

from mvmocap.metrics import (
    EmptySequence,
    NoComparableJoints,
    avg_2d_err,
    mean_abs_3d_err,
    sequence_mean,
)
from mvmocap.skeleton import Skeleton3D


def skeleton(positions, frame=0):
    return Skeleton3D(frame, {i: np.asarray(p, dtype=float) for i, p in positions.items()})


# -- mean_abs_3d_err ----------------------------------------------------------


def test_identical_skeletons_have_zero_error():
    s = skeleton({0: [1, 2, 3], 1: [4, 5, 6]})
    assert mean_abs_3d_err(s, s) == 0.0


def test_three_four_five_offset_is_exactly_five():
    a = skeleton({0: [0.0, 0.0, 0.0]})
    b = skeleton({0: [3.0, 4.0, 0.0]})
    assert mean_abs_3d_err(a, b) == 5.0


def test_matches_naive_loop_oracle(rng):
    for _ in range(50):
        n = rng.integers(1, 15)
        pa = {i: rng.uniform(-1000, 1000, size=3) for i in range(n)}
        pb = {i: rng.uniform(-1000, 1000, size=3) for i in range(n)}
        expected = sum(math.dist(pa[i], pb[i]) for i in range(n)) / n
        assert mean_abs_3d_err(skeleton(pa), skeleton(pb)) == pytest.approx(expected, abs=1e-12)


def test_equals_the_ascending_per_joint_norm_loop_bit_for_bit(rng):
    """One vecdot over the (15, 3) point arrays gives exactly the float of a
    per-joint np.linalg.norm loop over the shared joints in ascending order."""
    compared = 0
    for _ in range(200):
        scale = 10.0 ** rng.integers(-3, 4)
        pa = {i: rng.normal(0.0, scale, size=3) for i in range(15) if rng.random() < 0.8}
        pb = {i: rng.normal(0.0, scale, size=3) for i in range(15) if rng.random() < 0.8}
        shared = sorted(pa.keys() & pb.keys())
        if not shared:
            continue
        total = 0.0
        for i in shared:
            total += float(np.linalg.norm(pa[i] - pb[i]))
        assert mean_abs_3d_err(skeleton(pa), skeleton(pb)) == total / len(shared)
        compared += 1
    assert compared > 150


def test_joints_missing_on_either_side_are_excluded():
    a = skeleton({0: [0.0, 0.0, 0.0], 1: [10.0, 0.0, 0.0]})
    b = skeleton({0: [1.0, 0.0, 0.0], 2: [0.0, 0.0, 0.0]})
    assert mean_abs_3d_err(a, b) == 1.0


def test_no_shared_joints_raises():
    a = skeleton({0: [0.0, 0.0, 0.0]})
    b = skeleton({1: [0.0, 0.0, 0.0]})
    with pytest.raises(NoComparableJoints):
        mean_abs_3d_err(a, b)


def test_translation_invariance(rng):
    pa = {i: rng.uniform(-100, 100, size=3) for i in range(8)}
    pb = {i: rng.uniform(-100, 100, size=3) for i in range(8)}
    shift = np.array([123.0, -45.0, 6.0])
    base = mean_abs_3d_err(skeleton(pa), skeleton(pb))
    shifted = mean_abs_3d_err(
        skeleton({i: p + shift for i, p in pa.items()}),
        skeleton({i: p + shift for i, p in pb.items()}),
    )
    assert shifted == pytest.approx(base, abs=1e-9)


def test_symmetry_and_scaling(rng):
    pa = {i: rng.uniform(-100, 100, size=3) for i in range(6)}
    pb = {i: rng.uniform(-100, 100, size=3) for i in range(6)}
    a, b = skeleton(pa), skeleton(pb)
    assert mean_abs_3d_err(a, b) == mean_abs_3d_err(b, a)
    doubled = mean_abs_3d_err(
        skeleton({i: 2.0 * p for i, p in pa.items()}),
        skeleton({i: 2.0 * p for i, p in pb.items()}),
    )
    assert doubled == 2.0 * mean_abs_3d_err(a, b)


# -- sequence_mean ----------------------------------------------------------------


def test_sequence_mean_simple_cases():
    assert sequence_mean([10.0, 20.0, 30.0]) == 20.0
    assert sequence_mean([7.25]) == 7.25


def test_sequence_mean_matches_compensated_sum(rng):
    values = list(rng.uniform(0, 1000, size=1000))
    expected = math.fsum(values) / len(values)
    assert sequence_mean(values) == pytest.approx(expected, rel=1e-9)


def test_empty_sequence_raises():
    with pytest.raises(EmptySequence):
        sequence_mean([])


# -- avg_2d_err ---------------------------------------------------------------------


NAN = [np.nan, np.nan]


def test_equal_points_give_zero_per_view():
    pts = {0: np.array([NAN, [5.0, 5.0], [9.0, 1.0]])}
    assert avg_2d_err(pts, pts) == {0: 0.0}


def test_six_eight_offset_is_exactly_ten():
    det = {3: np.array([[0.0, 0.0]])}
    rep = {3: np.array([[6.0, 8.0]])}
    assert avg_2d_err(det, rep) == {3: 10.0}


def test_views_without_matches_are_omitted():
    det = {0: np.array([NAN, [0.0, 0.0], NAN]), 1: np.array([NAN, NAN, NAN])}
    rep = {0: np.array([NAN, [1.0, 0.0], NAN]), 1: np.array([NAN, NAN, [0.0, 0.0]]), 2: np.array([NAN, NAN, NAN])}
    assert avg_2d_err(det, rep) == {0: 1.0}


def test_no_matches_anywhere_raises():
    with pytest.raises(NoComparableJoints):
        avg_2d_err({0: np.array([NAN, [1.0, 2.0]])}, {0: np.array([[1.0, 2.0], NAN])})


def test_avg_2d_matches_loop_oracle(rng):
    """Exact equality with a per-joint loop over the rows present on both sides."""
    def masked():
        pts = rng.uniform(0, 1000, size=(14, 2))
        pts[rng.random(14) < 0.3] = np.nan
        return pts

    for _ in range(50):
        det = {v: masked() for v in range(4)}
        rep = {v: masked() for v in range(4)}
        expected = {}
        for v in range(4):
            total, count = 0.0, 0
            for j in range(14):
                if not (np.isnan(det[v][j]).any() or np.isnan(rep[v][j]).any()):
                    total += float(np.linalg.norm(det[v][j] - rep[v][j]))
                    count += 1
            if count:
                expected[v] = total / count
        assert avg_2d_err(det, rep) == expected
