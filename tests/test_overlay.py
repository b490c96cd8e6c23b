"""The one-template overlay builder against the element-by-element oracle.

`overlay.render_overlay_svg` must return the string of `oracles.overlay_svg`
for any presence pattern of detected and reprojected rows, rows where only
x or only y is NaN, -0.0, values within 1e-9 of a .0005 rounding tie,
magnitudes up to 1e300, inf in y, and any positive resolution.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import overlay_svg

from mvmocap.geometry import CameraParams
from mvmocap.overlay import render_overlay_svg
from mvmocap.skeleton import DETECTED_JOINTS, JOINT_NAMES

finite = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False),
    st.just(-0.0),
    # Near a .0005 tie, where "%.3f" and format(x, ".3f") could round apart if they differed.
    st.builds(lambda k, eps: (k + 0.5) / 1000 + eps,
              st.integers(-10**7, 10**7), st.floats(min_value=-1e-9, max_value=1e-9)),
)
x_values = st.one_of(finite, st.just(math.nan))
y_values = st.one_of(finite, st.sampled_from([math.nan, math.inf, -math.inf]))


def rows(n):
    return st.lists(st.tuples(x_values, y_values), min_size=n, max_size=n).map(
        lambda r: np.array(r, dtype=float).reshape(n, 2))


def camera(w, h):
    return CameraParams(id=0, intrinsic=np.diag([1000.0, 1000.0, 1.0]), rotation=np.eye(3),
                        translation=np.zeros(3), resolution=(w, h))


@settings(max_examples=200, deadline=None)
@given(
    w=st.integers(1, 10**9), h=st.integers(1, 10**9),
    detected=rows(len(DETECTED_JOINTS)), reprojected=rows(len(JOINT_NAMES)),
)
def test_builder_matches_oracle(w, h, detected, reprojected):
    cam = camera(w, h)
    assert render_overlay_svg(cam, detected, reprojected) == overlay_svg(cam, detected, reprojected)


def test_builder_matches_oracle_with_every_row_absent_or_present():
    cam = camera(1920, 1080)
    for fill in (math.nan, 1.0005):
        detected = np.full((len(DETECTED_JOINTS), 2), fill)
        reprojected = np.full((len(JOINT_NAMES), 2), fill)
        svg = render_overlay_svg(cam, detected, reprojected)
        assert svg == overlay_svg(cam, detected, reprojected)
        assert svg.endswith("</svg>\n")
