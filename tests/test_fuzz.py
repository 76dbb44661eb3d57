"""Property tests: malformed input to an entry point raises a
``HypersplineError`` and nothing else.

Each test draws arguments of the wrong shape, size or type (ragged
nesting, text, complex, None, NaN and inf, bools, integers beyond int64)
and accepts either a successful call or a typed error. Runs are
derandomized and keep no example database, so every run draws the same
examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hyperspline import (
    Axis,
    HypersplineError,
    Interpolator,
    RegularGrid,
    write_results_csv,
)

AXES = [Axis(0.0, 1.0, 4)] * 3

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)

scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.booleans(),
    st.complex_numbers(max_magnitude=1e3),
    st.text(max_size=3),
    st.none(),
)

# nested lists of mixed depth and length
ragged = st.recursive(st.lists(scalars, max_size=5),
                      lambda inner: st.lists(inner, max_size=4),
                      max_leaves=70)

arrays = hnp.arrays(
    dtype=st.one_of(hnp.scalar_dtypes(), st.just(np.dtype(object))),
    shape=hnp.array_shapes(min_dims=0, max_dims=4, max_side=5))


def near_size(count):
    """Real samples of about ``count`` entries, NaN and inf included."""
    floats = st.floats(allow_nan=True, allow_infinity=True)
    return st.one_of(st.lists(floats, min_size=count - 1,
                              max_size=count + 1),
                     st.lists(st.lists(floats, min_size=1, max_size=3),
                              min_size=count - 1, max_size=count + 1))


@SETTINGS
@given(values=st.one_of(scalars, ragged, arrays, near_size(64),
                        near_size(128)),
       components=st.one_of(st.integers(-1, 3), st.floats(), st.text(),
                            st.none(), st.booleans()))
def test_grid_raises_only_typed_errors(values, components):
    try:
        RegularGrid(AXES, values, components=components)
    except HypersplineError:
        pass


@pytest.fixture(scope="module")
def result():
    grid = RegularGrid(AXES, np.arange(64.0))
    return Interpolator(grid).eval_batch(np.full((2, 3), 1.5))


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "results.csv"


@SETTINGS
@given(points=st.one_of(scalars, ragged, arrays, near_size(6),
                        st.lists(st.lists(scalars, min_size=3, max_size=3),
                                 min_size=2, max_size=2)))
def test_results_writer_raises_only_typed_errors(points, result, out_path):
    try:
        write_results_csv(out_path, points, result, ("f",))
    except HypersplineError:
        pass
