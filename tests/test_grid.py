import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyperspline import (
    Axis,
    BoundaryPolicy,
    ElementRef,
    HypersplineError,
    InvalidArgumentError,
    IrregularSpacingError,
    NonFiniteValueError,
    OutOfDomainError,
    RegularGrid,
    TooFewPointsError,
    UnsupportedDimensionError,
)
from hyperspline.grid import (
    gather_neighborhoods,
    infer_axis,
    lattice,
    locate,
    neighborhood_block,
)

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

    def test_element_counts_and_domains(self):
        grid = unit_grid(4, count=4)
        assert grid.element_counts() == (3, 3, 3, 3)
        assert grid.element_counts(STRICT) == (1, 1, 1, 1)
        assert grid.element_counts(GHOST) == (3, 3, 3, 3)
        assert grid.queryable_domain(STRICT) == (((1.0, 2.0),) * 4)
        assert grid.queryable_domain(GHOST) == (((0.0, 3.0),) * 4)

    @pytest.mark.parametrize("names", [["\udc80"], ["f\ud800"]])
    def test_rejects_unencodable_component_names(self, names):
        # accepted, then write_grid_csv raised UnicodeEncodeError
        with pytest.raises(InvalidArgumentError, match="UTF-8"):
            RegularGrid([Axis(0, 1, 4)] * 3, np.zeros(64),
                        component_names=names)

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
        got = gather_neighborhoods(grid, bases, policy)
        assert got.shape == (len(bases), 4 ** dim, 2)
        for i, base in enumerate(bases):
            want = reference_block(grid, base, policy)
            assert np.array_equal(got[i], want)
            assert np.array_equal(
                neighborhood_block(grid, ElementRef(base), policy), want)

    def test_any_base_out_of_range_rejected(self):
        grid = unit_grid(3, count=6)
        with pytest.raises(IndexError):
            gather_neighborhoods(grid, [[1, 1, 1], [1, 4, 1]], STRICT)
        with pytest.raises(IndexError):
            gather_neighborhoods(grid, [[0, 0, 0], [0, -1, 0]], GHOST)
