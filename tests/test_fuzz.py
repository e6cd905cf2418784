"""Library entry points on generated input: every call returns or raises an
``NlcdetError``, and never warns.

The covered entry points are ``ProjectionPlan`` and its four products,
``kitti_io.downsample`` and ``filter_detection_range``, and the integer fields
of ``TrainConfig`` and ``SceneParams``.  Image sizes stay at 64 or below, so
no example allocates a large grid; sizes too large for memory are not tried.
"""

import warnings
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcdet.errors import NlcdetError
from nlcdet.kitti_io import DETECTION_RANGE, downsample, filter_detection_range
from nlcdet.pipeline import SceneParams, TrainConfig
from nlcdet.propagation import ProjectionPlan

# Values of every kind a caller may pass where a count or a coordinate is
# wanted: the extremes that break arithmetic, floats, bools and strings.
_ODD = st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 1e100, -1e100, 0.0, -0.0,
                        -1.0, 2.5, 4.0, True, False, "3", None])
_COUNTS = st.one_of(st.integers(-3, 64), st.integers(-2**70, 2**70), _ODD)
_SIZES = st.one_of(st.integers(-2, 64), _ODD)  # no integer above 64
_COORDS = st.one_of(st.floats(-80.0, 80.0), _ODD.filter(lambda v: isinstance(v, float)))
_INTEGER_FIELDS = {
    cls: [f.name for f in fields(cls) if f.type == "int"] for cls in (TrainConfig, SceneParams)
}


def _array(draw, shape):
    """A float array of ``shape``: seeded uniform values on a drawn scale,
    with up to four entries replaced by drawn values, odd ones among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([2.0, 16.0, 80.0]))
    array = rng.uniform(-scale / 4, scale, size=shape)
    for value in draw(st.lists(_COORDS, max_size=4)):
        if array.size:
            array.flat[rng.integers(array.size)] = value
    return array


@st.composite
def _points(draw):
    """A cloud of (N, 1..5) rows, mostly (N, 4), or a 1-D or 3-D array."""
    n = draw(st.integers(0, 12))
    shape = draw(st.one_of(st.just((n, 4)), st.tuples(st.just(n), st.integers(1, 5)),
                           st.just((n,)), st.just((n, 2, 3))))
    return _array(draw, shape)


def _returns_or_rejects(call):
    """``call()``'s value, or None where it raised an NlcdetError; a warning
    or any other exception fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except NlcdetError:
            return None


class TestLibraryFuzz:
    @given(data=st.data(), height=_SIZES, width=_SIZES, n=st.integers(0, 10))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_projection_plan(self, data, height, width, n):
        coords = _array(data.draw, (n, data.draw(st.sampled_from([2, 2, 2, 1, 3]))))
        plan = _returns_or_rejects(lambda: ProjectionPlan(coords, height, width))
        if plan is None:
            return
        assert all(type(size) is int and size >= 1 for size in (height, width))
        channels = data.draw(st.integers(1, 3))
        rows = _array(data.draw, (max(0, n + data.draw(st.sampled_from([0, 0, -1, 1]))), channels))
        grid = _array(data.draw, (channels, height, width + data.draw(st.sampled_from([0, 0, 1]))))
        for product, arg, shape in ((plan.scatter, rows, (channels, height, width)),
                                    (plan.gather_grad, rows, (channels, height, width)),
                                    (plan.gather, grid, (n, channels)),
                                    (plan.scatter_grad, grid, (n, channels))):
            out = _returns_or_rejects(lambda: product(arg))
            assert out is None or out.shape == shape

    @given(points=_points(), budget=_COUNTS, seed=_COUNTS,
           strategy=st.sampled_from(["random", "fps", "other"]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_downsample(self, points, budget, seed, strategy):
        out = _returns_or_rejects(lambda: downsample(points, budget, seed, strategy))
        if out is not None:
            assert len(out) <= budget and out.shape[1:] == points.shape[1:]

    @given(points=_points())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_filter_detection_range(self, points):
        out = _returns_or_rejects(lambda: filter_detection_range(points))
        if out is not None and len(out):
            for axis, (lo, hi) in enumerate(DETECTION_RANGE):
                assert np.all((out[:, axis] >= lo) & (out[:, axis] <= hi))

    @given(data=st.data(), cls=st.sampled_from([TrainConfig, SceneParams]), value=_COUNTS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_integer_fields(self, data, cls, value):
        name = data.draw(st.sampled_from(_INTEGER_FIELDS[cls]))
        made = _returns_or_rejects(lambda: cls(**{name: value}))
        if made is not None:
            assert type(value) is int
