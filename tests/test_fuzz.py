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
    ElementRef,
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


# query points: malformed ones and rows of three arbitrary scalars
query_points = st.one_of(scalars, ragged, arrays,
                         st.lists(scalars, min_size=3, max_size=3))


@SETTINGS
@given(origin=st.one_of(scalars, st.integers(-2 ** 1100, 2 ** 1100)),
       spacing=scalars, count=scalars)
def test_axis_raises_only_typed_errors(origin, spacing, count):
    try:
        Axis(origin, spacing, count)
    except HypersplineError:
        pass


@SETTINGS
@given(axes=st.one_of(st.just(AXES), scalars, ragged, arrays,
                      st.lists(st.one_of(st.just(AXES[0]), scalars),
                               max_size=5)),
       values=st.one_of(scalars, ragged, arrays, near_size(64),
                        near_size(128)),
       components=st.one_of(st.integers(-1, 3), st.floats(), st.text(),
                            st.none(), st.booleans()))
def test_grid_raises_only_typed_errors(axes, values, components):
    try:
        RegularGrid(axes, values, components=components)
    except HypersplineError:
        pass


@pytest.fixture(scope="module")
def interp():
    return Interpolator(RegularGrid(AXES, np.arange(64.0)))


@SETTINGS
@given(point=query_points)
def test_point_queries_raise_only_typed_errors(interp, point):
    for query in (interp.eval, interp.eval_with_gradient):
        try:
            query(point)
        except HypersplineError:
            pass


@SETTINGS
@given(point=st.one_of(st.just([1.5] * 3), query_points),
       orders=st.one_of(scalars, ragged, arrays,
                        st.lists(st.one_of(st.integers(-1, 4), scalars),
                                 min_size=3, max_size=3)))
def test_derivative_raises_only_typed_errors(interp, point, orders):
    try:
        interp.derivative(point, orders)
    except HypersplineError:
        pass


@SETTINGS
@given(base=st.one_of(scalars, ragged, arrays))
def test_element_ref_raises_only_typed_errors(base):
    try:
        ElementRef(base)
    except HypersplineError:
        pass


@SETTINGS
@given(elem=st.one_of(scalars, ragged,
                      st.lists(st.just(1), max_size=5).map(
                          lambda base: ElementRef(tuple(base)))),
       u=st.one_of(st.just([0.5] * 3), query_points))
def test_eval_local_raises_only_typed_errors(interp, elem, u):
    # the ElementRefs drawn are all ones, in range when of length 3: an
    # element out of range is documented to raise IndexError
    try:
        interp.eval_local(elem, u)
    except HypersplineError:
        pass


@SETTINGS
@given(batch=st.one_of(query_points,
                       st.lists(st.lists(scalars, min_size=3, max_size=3),
                                max_size=4)))
def test_eval_batch_raises_only_typed_errors(interp, batch):
    try:
        interp.eval_batch(batch)
    except HypersplineError:
        pass


@pytest.fixture(scope="module")
def result(interp):
    return interp.eval_batch(np.full((2, 3), 1.5))


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "results.csv"


@SETTINGS
@given(points=st.one_of(st.just(np.full((2, 3), 1.5)), scalars, ragged,
                        arrays, near_size(6),
                        st.lists(st.lists(scalars, min_size=3, max_size=3),
                                 min_size=2, max_size=2)),
       component_names=st.one_of(st.just(("f",)), scalars, ragged,
                                 st.lists(st.text(max_size=2), max_size=3)))
def test_results_writer_raises_only_typed_errors(points, component_names,
                                                 result, out_path):
    try:
        write_results_csv(out_path, points, result, component_names)
    except HypersplineError:
        pass
