import copy
import json
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hyperspline import (
    Axis,
    BoundaryPolicy,
    DimensionMismatchError,
    ElementOutOfRangeError,
    ElementRef,
    HypersplineError,
    Interpolator,
    InvalidArgumentError,
    IrregularSpacingError,
    NonFiniteValueError,
    OutOfDomainError,
    RegularGrid,
    TooFewPointsError,
    UnsupportedDimensionError,
)
from hyperspline.errors import shown
from hyperspline.grid import (
    AXIS_NAMES,
    _stencils,
    as_component_names,
    infer_axis,
    lattice,
    locate,
    locate_points,
    neighborhood_block,
)
from hyperspline.io import load_grid_csv, write_grid_csv

STRICT = BoundaryPolicy.STRICT
GHOST = BoundaryPolicy.LINEAR_GHOST


def unit_grid(dim, count=6, components=1, fill=0.0):
    axes = [Axis(0.0, 1.0, count)] * dim
    shape = (count,) * dim + (components,)
    return RegularGrid(axes, np.full(shape, fill), components=components)


def grid_from_function(axes, func):
    counts = tuple(a.count for a in axes)
    vals = np.empty(counts[::-1] + (1,))
    for idx in np.ndindex(*counts[::-1]):
        point = [axes[d].coordinate(idx[len(axes) - 1 - d])
                 for d in range(len(axes))]
        vals[idx] = func(*point)
    return RegularGrid(axes, vals)


class TestAxis:
    def test_coordinates(self):
        a = Axis(1.5, 0.25, 5)
        assert a.coordinate(0) == 1.5
        assert a.coordinate(4) == 2.5
        assert_allclose(a.coordinates(), [1.5, 1.75, 2.0, 2.25, 2.5])

    def test_validation(self):
        with pytest.raises(TooFewPointsError):
            Axis(0.0, 1.0, 3)
        with pytest.raises(IrregularSpacingError):
            Axis(0.0, -1.0, 5)
        with pytest.raises(IrregularSpacingError):
            Axis(0.0, 0.0, 5)

    @pytest.mark.parametrize("origin, spacing", [
        (np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (0.0, np.nan),
        (0.0, np.inf)])
    def test_non_finite_origin_or_spacing_rejected(self, origin, spacing):
        with pytest.raises(NonFiniteValueError, match="must be finite"):
            Axis(origin, spacing, 4)

    @pytest.mark.parametrize("origin, spacing", [
        (" 0 ", "1e0"), ("0", 1.0), (0.0, "1"), (b"0", 1.0),
        (0.0, bytearray(b"1")), (True, 1.0), (0.0, True),
        (np.bool_(False), 1.0)])
    def test_text_and_bool_origin_spacing_rejected(self, origin, spacing):
        # float() parses text and bools: Axis(' 0 ', '1e0', 4) built
        # Axis(0.0, 1.0, 4)
        with pytest.raises(InvalidArgumentError, match="real numbers"):
            Axis(origin, spacing, 4)

    def test_numpy_numbers_accepted(self):
        assert Axis(np.float32(0.5), np.int64(2), 4) == Axis(0.5, 2.0, 4)

    @pytest.mark.parametrize("origin, spacing, count", [
        (1e308, 1e308, 4), (-1e308, 1e308, 4), (0.0, 1e308, 10 ** 6),
        (1.7e308, 1e300, 10 ** 9), (0.0, 1.0, 10 ** 400)],
        ids=["huge-origin", "huge-spacing", "huge-span", "near-limit",
             "count-past-float"])
    def test_last_vertex_overflow_rejected(self, origin, spacing, count):
        # an infinite last vertex would give an infinite domain, an
        # untyped OverflowError from eval and a RuntimeWarning from
        # eval_batch
        with pytest.raises(NonFiniteValueError, match="last vertex"):
            Axis(origin, spacing, count)

    @pytest.mark.parametrize("origin, spacing", [
        (1e15, 0.1), (-1e15, 0.1), (1e15, 0.125), (0.0, 5e-324)])
    def test_spacing_within_rounding_rejected(self, origin, spacing):
        # 0.1 is below the float64 step of 0.125 at 1e15: vertices 2 and
        # 3 coincide, and the grid CSV read back with too few rows
        with pytest.raises(IrregularSpacingError, match="float64 rounding"):
            Axis(origin, spacing, 5)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(origin=st.floats(-1e300, 1e300),
           ulps=st.floats(0.5, 4.0), count=st.integers(4, 64))
    def test_accepted_vertices_are_distinct(self, origin, ulps, count):
        # spacings of a few float64 steps at the origin, where vertices
        # coincide unless Axis rejects them
        try:
            axis = Axis(origin, ulps * np.spacing(abs(origin)), count)
        except IrregularSpacingError:
            return
        assert np.all(np.diff(axis.coordinates()) > 0)

    def test_finest_accepted_spacing_reads_back(self, tmp_path):
        axis = Axis(1e15, 0.25, 5)
        grid = RegularGrid([axis, Axis(0.0, 1.0, 4), Axis(0.0, 1.0, 4)],
                           np.arange(80.0))
        write_grid_csv(tmp_path / "grid.csv", grid)
        assert load_grid_csv(tmp_path / "grid.csv").axes == grid.axes

    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_huge_finite_axis_stays_finite(self, policy):
        axes = [Axis(1e308, 2e307, 4), Axis(-1.7e308, 5e307, 4),
                Axis(0.0, 1.0, 4)]
        for a in axes:
            assert np.all(np.isfinite(a.coordinates()))
        grid = RegularGrid(axes, np.zeros(64))
        dom = grid.queryable_domain(policy)
        assert np.all(np.isfinite(dom))
        point = [hi for _, hi in dom]
        assert np.array_equal(Interpolator(grid, policy).eval(point), [0.0])


class TestLattice:
    @pytest.mark.parametrize("dim", [3, 4])
    def test_vertices_in_sample_order(self, dim):
        axes = [Axis(-0.7, 0.31, 5), Axis(1.0, 0.25, 4), Axis(0.0, 2.0, 6),
                Axis(5.0, 0.5, 4)][:dim]
        coords = [a.coordinates() for a in axes]
        want = [[coords[d][idx[dim - 1 - d]] for d in range(dim)]
                for idx in np.ndindex(*[a.count for a in axes][::-1])]
        assert np.array_equal(lattice(axes), np.array(want))


class TestInferAxis:
    def test_arithmetic_progression(self):
        a = infer_axis([0.0, 0.5, 1.0, 1.5])
        assert a.origin == 0.0
        assert a.spacing == 0.5
        assert a.count == 4

    def test_irregular(self):
        with pytest.raises(IrregularSpacingError) as info:
            infer_axis([0.0, 1.0, 2.5, 3.0])
        assert str(info.value) == ("gap 1.5 at index 1 deviates from "
                                   "uniform spacing 1.0")

    def test_too_few(self):
        with pytest.raises(TooFewPointsError):
            infer_axis([0.0, 1.0, 2.0])

    @pytest.mark.parametrize("coords, error", [
        ([0, 1, np.nan, 3], NonFiniteValueError),
        ([0, 1, 2, np.inf], NonFiniteValueError),
        (["0", "1", "2", "3"], InvalidArgumentError),
        ([0, 1, 2, 3j], InvalidArgumentError),
        ([[0, 1], 2, 3, 4], InvalidArgumentError),
        ([[0, 1], [2, 3]], DimensionMismatchError),
        ([3, 2, 1, 0], IrregularSpacingError),
        ([1, 1, 1, 1], IrregularSpacingError)],
        ids=["nan", "inf", "text", "complex", "ragged", "2-d", "decreasing",
             "constant"])
    def test_typed_errors(self, coords, error):
        # NaN passed as a gap, text and ragged input raised numpy's
        # ValueError, and 2-D input read as too few coordinates
        with pytest.raises(error):
            infer_axis(coords)

    def test_tolerates_coordinate_rounding_far_from_zero(self):
        # epoch seconds in 1 ms steps: float64 rounding moves each gap by
        # ~5e-8, far beyond SPACING_RTOL of the spacing
        c = Axis(1e9, 1e-3, 5).coordinates()
        a = infer_axis(c)
        assert (a.origin, a.count) == (1e9, 5)
        assert_allclose(a.spacing, 1e-3, rtol=1e-4)
        with pytest.raises(IrregularSpacingError):
            infer_axis(c + [0.0, 0.0, 1e-4, 0.0, 0.0])

    def test_tolerates_rounding_noise(self):
        c = 0.1 * np.arange(8)  # accumulating float noise
        a = infer_axis(c)
        assert a.count == 8
        assert_allclose(a.spacing, 0.1, rtol=1e-12)


class TestRegularGrid:
    def test_rejects_bad_dim(self):
        with pytest.raises(UnsupportedDimensionError):
            RegularGrid([Axis(0, 1, 4)] * 2, np.zeros((4, 4, 1)))
        with pytest.raises(UnsupportedDimensionError):
            RegularGrid([Axis(0, 1, 4)] * 5, np.zeros((4,) * 5 + (1,)))

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf, -np.inf):
            vals = np.zeros((4, 4, 4, 1))
            vals[1, 2, 3, 0] = bad
            with pytest.raises(NonFiniteValueError):
                RegularGrid([Axis(0, 1, 4)] * 3, vals)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            RegularGrid([Axis(0, 1, 4)] * 3, np.zeros(63))

    def test_size_check_does_not_wrap(self):
        # 2**66 values wrap to 0 in int64, so no samples passed the check
        # and the constructor died allocating the padded store (Axis
        # rejects 2**52 or more unit steps, where vertices may coincide)
        with pytest.raises(DimensionMismatchError,
                           match=f"expected {2 ** 66} values"):
            RegularGrid([Axis(0, 1, 2 ** 31), Axis(0, 1, 2 ** 31),
                         Axis(0, 1, 16)], np.zeros(0))

    @pytest.mark.parametrize("m", [1, 2])
    def test_documented_layouts_agree(self, m):
        axes = [Axis(0, 1, c) for c in (4, 5, 6)]
        flat = np.arange(120.0 * m)
        layouts = [flat, flat.reshape(120, m), flat.reshape(6, 5, 4, m)]
        if m == 1:
            layouts.append(flat.reshape(6, 5, 4))
        for values in layouts:
            grid = RegularGrid(axes, values, components=m)
            assert np.array_equal(grid.values, flat.reshape(6, 5, 4, m))

    @pytest.mark.parametrize("shape, m", [
        ((4, 5, 6), 1), ((4, 5, 6, 1), 1), ((5, 4, 6), 1), ((6, 20), 1),
        ((2, 120), 2), ((6, 5, 2, 2), 1), ((6, 5, 8), 2), ((1, 120), 1)],
        ids=["x-first", "x-first-m", "mixed", "folded", "m-first",
             "split-axis", "m-folded", "leading-one"])
    def test_undocumented_layout_rejected(self, shape, m):
        # each was read as flat, so an x-first array came out transposed
        axes = [Axis(0, 1, c) for c in (4, 5, 6)]
        with pytest.raises(DimensionMismatchError, match="layout"):
            RegularGrid(axes, np.zeros(shape), components=m)

    def test_flat_layout(self):
        # samples equal to their own flat index pin the value layout
        counts = (4, 5, 6)
        m = 2
        flat = np.arange(4 * 5 * 6 * m, dtype=np.float64)
        grid = RegularGrid([Axis(0, 1, c) for c in counts], flat,
                           components=m)
        rng = np.random.default_rng(0)
        for _ in range(50):
            idx = [int(rng.integers(0, c)) for c in counts]
            c = int(rng.integers(0, m))
            expect = ((idx[2] * counts[1] + idx[1]) * counts[0]
                      + idx[0]) * m + c
            assert grid.vertex_value(idx, c) == expect

    @pytest.mark.parametrize("index, component, error, message", [
        ((-1, 0, 0), 0, InvalidArgumentError, r"-1 on axis 0 .*\[0, 4\)"),
        ((0, 5, 0), 0, InvalidArgumentError, r"5 on axis 1 .*\[0, 5\)"),
        ((4, 0, 0), 0, InvalidArgumentError, r"4 on axis 0 .*\[0, 4\)"),
        ((0, 0, 6), 0, InvalidArgumentError, r"6 on axis 2 .*\[0, 6\)"),
        ((0.5, 0, 0), 0, InvalidArgumentError, r"0\.5 on axis 0"),
        ((True, 0, 0), 0, InvalidArgumentError, r"True on axis 0"),
        ((0, 0, 0), -1, InvalidArgumentError, r"component -1 .*\[0, 1\)"),
        ((0, 0, 0), 1, InvalidArgumentError, r"component 1 .*\[0, 1\)"),
        ((0, 0, 0), True, InvalidArgumentError, r"component True"),
        ((0, 0, 0), 2 ** 70, InvalidArgumentError, r"component"),
        (5, 0, InvalidArgumentError, r"sequence of 3 integers"),
        (None, 0, InvalidArgumentError, r"sequence of 3 integers"),
        ((0, 0), 0, DimensionMismatchError, r"3 entries"),
        ((0, 0, 0, 0), 0, DimensionMismatchError, r"3 entries")])
    def test_vertex_value_typed_errors(self, index, component, error,
                                       message):
        # numpy indexing would wrap a negative entry and raise IndexError
        # or TypeError for the others
        grid = RegularGrid([Axis(0, 1, c) for c in (4, 5, 6)],
                           np.arange(120.0))
        with pytest.raises(error, match=message):
            grid.vertex_value(index, component)

    def test_vertex_value_takes_numpy_integers(self):
        grid = RegularGrid([Axis(0, 1, c) for c in (4, 5, 6)],
                           np.arange(120.0))
        assert grid.vertex_value(np.array([3, 4, 5]), np.int64(0)) == 119.0
        assert grid.vertex_value([3, 0, 0]) == 3.0

    def test_element_counts_and_domains(self):
        grid = unit_grid(4, count=4)
        assert grid.element_counts() == (3, 3, 3, 3)
        assert grid.element_counts(STRICT) == (1, 1, 1, 1)
        assert grid.element_counts(GHOST) == (3, 3, 3, 3)
        assert grid.queryable_domain(STRICT) == (((1.0, 2.0),) * 4)
        assert grid.queryable_domain(GHOST) == (((0.0, 3.0),) * 4)

    def test_lone_string_is_one_component_name(self):
        # a str was split into characters: "Bx" failed as two names for
        # one component, and "ab" named two components "a" and "b"
        grid = RegularGrid([Axis(0, 1, 4)] * 3, np.zeros(64),
                           component_names="Bx")
        assert grid.component_names == ("Bx",)
        with pytest.raises(InvalidArgumentError,
                           match="need 2 component names, got 'ab'"):
            RegularGrid([Axis(0, 1, 4)] * 3, np.zeros((64, 2)),
                        components=2, component_names="ab")

    def test_numpy_integer_components_stored_as_int(self):
        # np.int64(3) was kept as given, which json.dumps cannot write
        grid = RegularGrid([Axis(0, 1, 4)] * 3, np.zeros((64, 3)),
                           components=np.int64(3))
        assert type(grid.components) is int
        assert json.dumps(grid.components) == "3"
        assert pickle.loads(pickle.dumps(grid)).components == 3

    @pytest.mark.parametrize("names", [["\udc80"], ["f\ud800"]])
    def test_rejects_unencodable_component_names(self, names):
        # accepted, then write_grid_csv raised UnicodeEncodeError
        with pytest.raises(InvalidArgumentError, match="UTF-8"):
            RegularGrid([Axis(0, 1, 4)] * 3, np.zeros(64),
                        component_names=names)

    @pytest.mark.parametrize("names", [
        ["a,b"], ["a\nb"], ["b\r"], [" a"], ["a "], ['"a"'], ["t"],
        ["f", "x"], ["f", "f"], ["error"], ["f", "df_dx"], ["df_dt", "f"],
        [""]],
        ids=["comma", "newline", "return", "leading-space", "trailing-space",
             "quoted", "t", "x", "repeated", "error", "gradient",
             "gradient-t-first", "empty"])
    def test_rejects_names_a_csv_header_cannot_carry(self, names):
        # each was written into a grid file that did not read back with
        # the same names, or at all ("t" first on a 3D grid reads as 4D);
        # the last four gave a results CSV two columns of one name
        with pytest.raises(InvalidArgumentError, match="CSV header"):
            RegularGrid([Axis(0, 1, 4)] * 3, np.zeros((64, len(names))),
                        components=len(names), component_names=names)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=1000)
    @given(names=st.lists(st.one_of(
        st.sampled_from(["x", "t", "error", "f", "g", "df_dx", "dg_dt",
                         "ddf_dx_dy", "dx_dy"]),
        st.text(st.sampled_from("dfgx_t ,\"\r\n"), max_size=6)),
        max_size=5))
    def test_component_names_follow_the_earlier_rule(self, names):
        # each label once in a results header rejects what the earlier
        # rule did, an explicit set of taken names, with the same message;
        # the rule has since gained the empty name
        def earlier_rule(labels):
            taken = {"error", *AXIS_NAMES,
                     *(f"d{c}_d{a}" for c in labels for a in AXIS_NAMES)}
            for name in labels:
                if (not name or name != name.strip() or name in taken
                        or any(c in name for c in ',"\r\n')):
                    return InvalidArgumentError(
                        f"component name {shown(name)} would not read back "
                        f"from a CSV header: it is empty, holds a comma, "
                        f"quote, line break or surrounding space, repeats a "
                        f"name, or is an axis name, 'error' or another "
                        f"component's gradient column")
                taken.add(name)
            return tuple(labels)

        try:
            got = as_component_names(names, len(names))
        except InvalidArgumentError as exc:
            got = exc
        want = earlier_rule(names)
        assert type(got) is type(want) and str(got) == str(want)

    def test_values_read_only(self):
        grid = unit_grid(3)
        with pytest.raises(ValueError):
            grid.values[0, 0, 0, 0] = 1.0

    def test_ragged_samples_rejected(self):
        with pytest.raises(HypersplineError):
            RegularGrid([Axis(0, 1, 4)] * 3, [[1.0] * 63, [2.0]])

    @pytest.mark.parametrize("dim", [3, 4])
    def test_near_float64_max_builds_without_warning(self, dim):
        # the ghost layers of such samples overflow to inf or NaN; that
        # is the ghosts' arithmetic, not an error of the strict grid
        big = np.finfo(np.float64).max
        vals = np.where(np.indices((4,) * dim).sum(axis=0) % 2, big, -big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = RegularGrid([Axis(0, 1, 4)] * dim, vals)
        assert np.array_equal(grid.values[..., 0], vals)
        for policy in (STRICT, GHOST):
            ranges = grid.element_base_range(policy)
            for base in np.ndindex(*[hi - lo + 1 for lo, hi in ranges]):
                base = tuple(b + lo for b, (lo, _) in zip(base, ranges))
                with np.errstate(over="ignore", invalid="ignore"):
                    want = reference_block(grid, base, policy)
                got = neighborhood_block(grid, ElementRef(base), policy)
                assert np.array_equal(got, want, equal_nan=True), base


class TestLocate:
    def test_interior(self):
        grid = unit_grid(3, count=6)
        elem, u = locate(grid, [2.25, 1.0, 1.0], STRICT)
        assert elem.base == (2, 1, 1)
        assert_allclose(u, [0.25, 0.0, 0.0])

    def test_upper_boundary_maps_to_last_element(self):
        grid = unit_grid(3, count=6)
        elem, u = locate(grid, [4.0, 1.0, 1.0], STRICT)
        assert elem.base == (3, 1, 1)
        assert u[0] == 1.0

    def test_strict_rejects_edge_cell(self):
        grid = unit_grid(3, count=6)
        with pytest.raises(OutOfDomainError) as info:
            locate(grid, [0.5, 1.0, 1.0], STRICT)
        assert "coordinate 0.5 on axis 0" in str(info.value)
        assert "np." not in str(info.value)

    def test_ghost_extends_domain(self):
        grid = unit_grid(3, count=6)
        elem, u = locate(grid, [0.5, 1.0, 1.0], GHOST)
        assert elem.base == (0, 1, 1)
        assert_allclose(u, [0.5, 0.0, 0.0])
        with pytest.raises(OutOfDomainError):
            locate(grid, [-0.01, 1.0, 1.0], GHOST)

    def test_wrong_arity(self):
        grid = unit_grid(3)
        with pytest.raises(ValueError):
            locate(grid, [1.0, 1.0], STRICT)

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_round_trip(self, dim, policy):
        axes = [Axis(-2.0, 0.3, 7), Axis(5.0, 1.7, 6),
                Axis(0.0, 0.01, 8), Axis(1.0, 2.0, 5)][:dim]
        grid = RegularGrid(axes, np.zeros([a.count for a in axes][::-1] + [1]))
        rng = np.random.default_rng(42)
        ranges = grid.element_base_range(policy)
        for _ in range(200):
            base = [int(rng.integers(lo, hi + 1)) for lo, hi in ranges]
            u = rng.uniform(0.01, 0.99, dim)
            point = [axes[d].coordinate(base[d]) + u[d] * axes[d].spacing
                     for d in range(dim)]
            elem, u_back = locate(grid, point, policy)
            assert elem.base == tuple(base)
            assert_allclose(u_back, u, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_batch_keeps_the_sign_of_a_zero_local_coordinate(self, policy):
        # a -0.0 coordinate on a vertex at 0.0 gives u = -0.0; the batch
        # clamp must keep it, as the scalar one does
        grid = RegularGrid([Axis(-1.0, 1.0, 5)] * 3, np.zeros((5, 5, 5)))
        point = [-0.0, -0.0, 0.5]
        elem, u = locate(grid, point, policy)
        bases, u_batch, ok = locate_points(grid, [point], policy)
        assert ok.all() and tuple(bases[0]) == elem.base
        assert np.signbit(u).tolist() == [True, True, False]
        assert u_batch[:, 0].tobytes() == u.tobytes()


# a 3D and a 4D grid with fractional spacings and offset origins
RANGE_GRIDS = [
    RegularGrid(axes, np.zeros([a.count for a in axes][::-1] + [1]))
    for axes in ([Axis(-2.0, 0.3, 7), Axis(5.0, 1.7, 6), Axis(0.0, 0.01, 8)],
                 [Axis(-1.0, 0.25, 5), Axis(0.0, 0.4, 4), Axis(3.0, 1.5, 6),
                  Axis(-1e-3, 2.0, 5)])]


@st.composite
def coordinates_around(draw, grid, policy):
    """A ``(k, dim)`` batch of coordinates: each is a domain edge, the
    float one ulp either side of it, NaN, +-inf, +-1e308 or any float."""
    columns = []
    for cmin, cmax in grid.queryable_domain(policy):
        edges = [cmin, cmax, np.nextafter(cmin, -np.inf),
                 np.nextafter(cmax, np.inf), np.nextafter(cmin, np.inf),
                 np.nextafter(cmax, -np.inf)]
        special = st.sampled_from(
            edges + [np.nan, np.inf, -np.inf, 1e308, -1e308])
        columns.append(draw(st.lists(
            st.one_of(special, st.floats(), st.floats(cmin - 1, cmax + 1)),
            min_size=1, max_size=8)))
    k = min(map(len, columns))
    return np.array([c[:k] for c in columns]).T


class TestBasesRange:
    """``locate_points`` gives every point, inside the domain or not, a
    base within ``element_base_range(policy)``, so the batch path may
    gather its stencils without checking them again."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=100)
    @given(data=st.data())
    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    @pytest.mark.parametrize("grid", RANGE_GRIDS, ids=["3", "4"])
    def test_bases_within_range(self, grid, policy, data):
        pts = data.draw(coordinates_around(grid, policy))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bases, u, ok = locate_points(grid, pts, policy)
        lo, hi = np.array(grid.element_base_range(policy)).T
        assert ((bases >= lo) & (bases <= hi)).all()
        assert (np.isnan(u) | ((u >= 0.0) & (u <= 1.0))).all()
        dom = np.array(grid.queryable_domain(policy))
        assert ok.tolist() == ((pts >= dom[:, 0]) & (pts <= dom[:, 1])
                               ).all(axis=1).tolist()


class TestNeighborhood:
    def test_constant_field(self):
        grid = unit_grid(4, count=4, fill=5.0)
        x = neighborhood_block(grid, ElementRef((1, 1, 1, 1)), STRICT)[:, 0]
        assert x.shape == (256,)
        assert np.all(x == 5.0)

    def test_linear_field_entries(self):
        axes = [Axis(0.0, 1.0, 6)] * 4
        counts = (6, 6, 6, 6)
        vals = np.empty(counts[::-1] + (1,))
        for idx in np.ndindex(*counts[::-1]):
            vals[idx] = idx[3]  # f(x,y,z,t) = x
        grid = RegularGrid(axes, vals)
        x = neighborhood_block(grid, ElementRef((2, 1, 1, 1)), STRICT)[:, 0]
        # offset (-1,0,0,0) has flat index 0+4+16+64, (2,0,0,0) is 3+4+16+64
        assert x[0 + 4 + 16 + 64] == 1.0
        assert x[3 + 4 + 16 + 64] == 4.0

    def test_degree_one_polynomial_exact_at_all_offsets(self):
        axes = [Axis(0.0, 0.5, 6), Axis(-1.0, 1.0, 5), Axis(2.0, 0.25, 7)]

        def f(x, y, z):
            return 2.0 + 3.0 * x - y + 0.5 * z + x * y - 2.0 * y * z

        grid = grid_from_function(axes, f)
        x = neighborhood_block(grid, ElementRef((2, 2, 3)), STRICT)[:, 0]
        n = 0
        for oz in (-1, 0, 1, 2):
            for oy in (-1, 0, 1, 2):
                for ox in (-1, 0, 1, 2):
                    px = axes[0].coordinate(2 + ox)
                    py = axes[1].coordinate(2 + oy)
                    pz = axes[2].coordinate(3 + oz)
                    assert x[n] == f(px, py, pz)
                    n += 1

    def test_strict_rejects_boundary_element(self):
        grid = unit_grid(3, count=6)
        with pytest.raises(IndexError):
            neighborhood_block(grid, ElementRef((0, 1, 1)), STRICT)[:, 0]

    def test_ghost_rejects_off_grid_element(self):
        grid = unit_grid(3, count=6)
        with pytest.raises(IndexError):
            neighborhood_block(grid, ElementRef((-1, 1, 1)), GHOST)[:, 0]
        with pytest.raises(IndexError):
            neighborhood_block(grid, ElementRef((5, 1, 1)), GHOST)[:, 0]

    def test_ghost_values(self):
        # 1-axis check: edge samples 1, 3 extrapolate to 2*1 - 3 = -1
        axes = [Axis(0.0, 1.0, 4)] * 3
        vals = np.zeros((4, 4, 4, 1))
        for i, v in enumerate([1.0, 3.0, 4.0, 10.0]):
            vals[:, :, i, 0] = v
        grid = RegularGrid(axes, vals)
        x = neighborhood_block(grid, ElementRef((0, 1, 1)), GHOST)[:, 0]
        # offset (-1, 0, 0) reads the low-x ghost layer
        assert x[0 + 4 + 16] == 2.0 * 1.0 - 3.0
        # offsets 0..2 read the real samples
        assert x[1 + 4 + 16] == 1.0
        assert x[2 + 4 + 16] == 3.0
        assert x[3 + 4 + 16] == 4.0
        # upper edge element: offset +2 reads the high-x ghost layer
        x = neighborhood_block(grid, ElementRef((2, 1, 1)), GHOST)[:, 0]
        assert x[3 + 4 + 16] == 2.0 * 10.0 - 4.0

    def test_ghost_preserves_linear_fields(self):
        axes = [Axis(0.0, 1.0, 5)] * 3

        def f(x, y, z):
            return 1.0 + 2.0 * x - 3.0 * y + 0.25 * z

        grid = grid_from_function(axes, f)
        x = neighborhood_block(grid, ElementRef((0, 0, 0)), GHOST)[:, 0]
        n = 0
        for oz in (-1, 0, 1, 2):
            for oy in (-1, 0, 1, 2):
                for ox in (-1, 0, 1, 2):
                    assert x[n] == pytest.approx(
                        f(float(ox), float(oy), float(oz)), abs=1e-13)
                    n += 1

    def test_block_matches_per_component(self):
        rng = np.random.default_rng(7)
        axes = [Axis(0.0, 1.0, 5)] * 3
        vals = rng.standard_normal((5, 5, 5, 3))
        grid = RegularGrid(axes, vals, components=3)
        elem = ElementRef((1, 2, 1))
        block = neighborhood_block(grid, elem, STRICT)
        for c in range(3):
            single = RegularGrid(axes, vals[..., c])
            one = neighborhood_block(single, elem, STRICT)
            assert np.array_equal(block[:, c], one[:, 0])


def reference_block(grid, base, policy):
    """Per-element neighborhood by clipped per-axis indices (reference)."""
    dim = grid.dim
    idx = [np.clip(np.arange(b - 1, b + 3), 0, a.count - 1)
           for a, b in zip(grid.axes, base)]
    block = grid.values[np.ix_(*idx[::-1])]
    if policy is GHOST:
        for d, (a, b) in enumerate(zip(grid.axes, base)):
            sub = np.moveaxis(block, dim - 1 - d, 0)
            if b == 0:
                sub[0] = 2.0 * sub[1] - sub[2]
            if b == a.count - 2:
                sub[3] = 2.0 * sub[2] - sub[1]
    return block.reshape(4 ** dim, grid.components)


class TestGather:
    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_every_element_matches_reference_bitwise(self, dim, policy):
        rng = np.random.default_rng(dim)
        axes = [Axis(0.0, 1.0, 5), Axis(0.0, 0.5, 4), Axis(1.0, 2.0, 6),
                Axis(0.0, 1.0, 4)][:dim]
        counts = [a.count for a in axes]
        grid = RegularGrid(axes, rng.standard_normal(counts[::-1] + [2]),
                           components=2)
        ranges = grid.element_base_range(policy)
        bases = np.stack(np.meshgrid(
            *[np.arange(lo, hi + 1) for lo, hi in ranges],
            indexing="ij"), axis=-1).reshape(-1, dim)
        bases = bases[rng.permutation(len(bases))]
        got = _stencils(grid, bases)
        assert got.shape == (len(bases), 4 ** dim, 2)
        for i, base in enumerate(bases):
            want = reference_block(grid, base, policy)
            assert np.array_equal(got[i], want)
            assert np.array_equal(
                neighborhood_block(grid, ElementRef(base), policy), want)

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_no_bases_gather_nothing(self, dim, policy):
        grid = unit_grid(dim, count=5, components=2)
        bases, _, _ = locate_points(grid, np.empty((0, dim)), policy)
        assert _stencils(grid, bases).shape == (0, 4 ** dim, 2)


class TestRunGather:
    """The gathers copy x-runs of 4 vertices x m components as single
    items; the bytes must be those of a float stencil view, point by
    point, whatever the batch size."""

    @staticmethod
    def float_stencils(grid, bases):
        # every stencil as a float window over all dim axes of the store
        dim, m = grid.dim, grid.components
        padded = grid._samples.reshape(
            tuple(c + 2 for c in grid.counts[::-1]) + (m,))
        windows = np.moveaxis(np.lib.stride_tricks.sliding_window_view(
            padded, (4,) * dim, axis=tuple(range(dim))), dim, -1)
        return windows[tuple(bases.T[::-1])].reshape(len(bases), 4 ** dim, m)

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("m", [1, 3, 10])
    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_matches_float_windows_bytewise(self, dim, m, policy):
        rng = np.random.default_rng(100 * dim + m)
        axes = [Axis(0.0, 1.0, 5), Axis(-1.0, 0.5, 4), Axis(2.0, 0.25, 6),
                Axis(0.0, 2.0, 4)][:dim]
        counts = [a.count for a in axes]
        grid = RegularGrid(axes, rng.standard_normal(counts[::-1] + [m]),
                           components=m)
        dom = np.array(grid.queryable_domain(policy))
        chunk = Interpolator(grid, policy)._chunk
        for n in (1, 7, 2 * chunk + 5):
            pad = 0.2 * (dom[:, 1] - dom[:, 0])
            pts = rng.uniform(dom[:, 0] - pad, dom[:, 1] + pad, (n, dim))
            pts[rng.random(n) < 0.1] = np.nan
            bases, _, ok = locate_points(grid, pts, policy)
            want = self.float_stencils(grid, bases)
            assert _stencils(grid, bases).tobytes() == want.tobytes()
            # in slices of the chunk size, as eval_batch gathers them
            got = np.concatenate([_stencils(grid, bases[s:s + chunk])
                                  for s in range(0, n, chunk)])
            assert got.tobytes() == want.tobytes()
            for base, block in zip(bases[:64], want):
                one = neighborhood_block(grid, ElementRef(base), policy)
                assert one.shape == (4 ** dim, m)
                assert one.tobytes() == block.tobytes()
        assert n > 2 * chunk and not ok.all() and ok.any()


class TestStencilView:
    """Gathers copy stencils out of one read-only strided view of the
    sample store; the view costs no memory, in the process or a pickle."""

    @pytest.mark.parametrize("dim", [3, 4])
    def test_read_only_view_of_the_store(self, dim):
        grid = unit_grid(dim, count=6, components=2)
        assert not grid._windows.flags.writeable
        assert np.shares_memory(grid._windows, grid._samples)
        # one stencil per element: bases t..x, then offsets t..y; an
        # item is an x-run, 4 x-vertices x 2 components
        assert grid._windows.shape == (5,) * dim + (4,) * (dim - 1)
        assert grid._windows.dtype == np.dtype((np.void, 32 * 2))

    def test_gather_builds_no_index_array(self):
        rng = np.random.default_rng(5)
        grid = RegularGrid([Axis(0.0, 1.0, 10)] * 4,
                           rng.standard_normal((10,) * 4 + (3,)),
                           components=3)
        bases = rng.integers(1, 8, (256, 4))
        _stencils(grid, bases)  # warm
        tracemalloc.start()
        try:
            out = _stencils(grid, bases)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a (256, 256) int64 index array alone would be 512 KiB
        assert peak <= out.nbytes + 64 * 1024

    @staticmethod
    def field_grid():
        rng = np.random.default_rng(40)
        return RegularGrid([Axis(0.0, 0.1, 40)] * 3,
                           rng.standard_normal((40, 40, 40, 3)),
                           components=3, component_names=["u", "v", "w"])

    def test_pickle_holds_the_samples_once(self):
        # pickling the view wrote out every stencil: 94 MB here
        grid = self.field_grid()
        assert len(pickle.dumps(grid)) < 2 * 2 ** 20

    @pytest.mark.parametrize("clone", [
        lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
        ids=["pickle", "deepcopy"])
    def test_round_trip_is_bitwise(self, clone):
        grid = self.field_grid()
        back = clone(grid)
        assert back.axes == grid.axes
        assert back.component_names == grid.component_names
        assert back._samples.tobytes() == grid._samples.tobytes()
        assert not back._windows.flags.writeable
        pts = np.random.default_rng(41).uniform(-0.2, 4.1, (3000, 3))
        for policy in (STRICT, GHOST):
            want = Interpolator(grid, policy).eval_batch(pts)
            got = Interpolator(back, policy).eval_batch(pts)
            for g, w in zip((got.values, got.gradients, got.ok),
                            (want.values, want.gradients, want.ok)):
                assert g.tobytes() == w.tobytes()


class TestPolicyValues:
    """Every grid function takes a policy as a member or its value, as
    Interpolator does; a value raised a bare KeyError."""

    @staticmethod
    def calls(grid, policy):
        return [
            lambda: grid.element_base_range(policy),
            lambda: grid.queryable_domain(policy),
            lambda: grid.element_counts(policy),
            lambda: locate(grid, [1.5, 2.5, 1.0], policy),
            lambda: locate_points(grid, [[1.5, 2.5, 1.0], [9, 9, 9]], policy),
            lambda: neighborhood_block(grid, ElementRef((1, 2, 1)), policy),
        ]

    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_value_answers_as_the_member(self, policy):
        grid = grid_from_function([Axis(0.0, 1.0, 5)] * 3,
                                  lambda x, y, z: x * y - z)
        for by_member, by_value in zip(self.calls(grid, policy),
                                       self.calls(grid, policy.value)):
            # pickles hold every array's bytes, so equal ones are bitwise
            assert pickle.dumps(by_member()) == pickle.dumps(by_value())

    @pytest.mark.parametrize("policy", ["Strict", "STRICT", "ghost", 1,
                                        ["strict"], ()])
    def test_unknown_policy_is_typed(self, policy):
        grid = unit_grid(3, count=5)
        for call in self.calls(grid, policy):
            with pytest.raises(InvalidArgumentError, match="boundary policy"):
                call()

    def test_out_of_range_messages_name_the_value(self):
        grid = unit_grid(3, count=5)
        with pytest.raises(OutOfDomainError, match="under strict"):
            locate(grid, [0.5, 1.0, 1.0], "strict")
        with pytest.raises(IndexError, match="under linear-ghost"):
            neighborhood_block(grid, ElementRef((4, 0, 0)), "linear-ghost")


class TestMalformedBasesAndPoints:
    def test_locate_points_takes_a_list(self):
        # raised AttributeError: 'list' object has no attribute 'shape'
        grid = unit_grid(3)
        pts = [[1.5, 2.5, 3.0], [0.5, 1.0, 1.0]]
        bases, u, ok = locate_points(grid, pts, STRICT)
        want = locate_points(grid, np.array(pts), STRICT)
        assert all(map(np.array_equal, (bases, u, ok), want))
        assert ok.tolist() == [True, False]
        with pytest.raises(DimensionMismatchError):
            locate_points(grid, [1.5, 2.5, 3.0], STRICT)


class TestLocatedElement:
    """``locate`` builds its ElementRef without re-validating the base it
    computed; the result is indistinguishable from a checked one, and the
    checked gather keeps its error types and messages."""

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_located_element_is_a_checked_one(self, dim, policy):
        grid = unit_grid(dim, count=6)
        rng = np.random.default_rng(dim)
        dom = np.array(grid.queryable_domain(policy))
        for point in rng.uniform(dom[:, 0], dom[:, 1], (20, dim)):
            elem, _ = locate(grid, point, policy)
            checked = ElementRef(elem.base)
            assert type(elem) is ElementRef
            assert type(elem.base) is tuple
            assert all(type(b) is int for b in elem.base)
            assert elem == checked and hash(elem) == hash(checked)
            assert repr(elem) == repr(checked)
            assert pickle.dumps(elem) == pickle.dumps(checked)
            assert copy.deepcopy(elem) == checked
            with pytest.raises(AttributeError):
                elem.base = (0,) * dim

    def test_public_constructor_still_converts(self):
        base = ElementRef((np.int64(1), np.uint8(2), 3)).base
        assert base == (1, 2, 3) and all(type(b) is int for b in base)

    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_gather_messages(self, policy):
        grid = unit_grid(4, count=5)
        with pytest.raises(DimensionMismatchError,
                           match=r"^element base must have 4 entries, "
                                 r"got \(1, 1, 1\)$"):
            neighborhood_block(grid, ElementRef((1, 1, 1)), policy)
        for base in ((1, 1, 1, 4), (-1, 1, 1, 1), (1, 9, 1, 1)):
            msg = (f"element base {base} outside valid range "
                   f"under {policy.value}")
            with pytest.raises(ElementOutOfRangeError,
                               match=f"^{re.escape(msg)}$"):
                neighborhood_block(grid, ElementRef(base), policy)
        with pytest.raises(DimensionMismatchError,
                           match=r"^point must have 4 coordinates, got "
                                 r"shape \(3,\)$"):
            locate(grid, [1.5, 1.5, 1.5], policy)
