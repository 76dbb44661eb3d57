import functools
import hashlib
import itertools
import math
import threading
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
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
    InvalidPointError,
    OutOfDomainError,
    PointIndexError,
    QueryResult,
    RegularGrid,
    TooFewPointsError,
)
from hyperspline import grid as grid_module
from hyperspline import interpolator as interpolator_module
from hyperspline.fields import (
    check_c1_continuity,
    check_c2_jump,
    check_cubic_inexactness,
    check_line_reduction,
    check_quadratic_exactness,
    check_time_slice,
    check_vertex_reproduction,
    constant_field,
    linear_field,
    multilinear_field,
    oracle_coefficients,
    sample,
    tensor_polynomial_field,
    trig_product_field,
)
from hyperspline.grid import (
    _stencils,
    locate,
    locate_points,
    neighborhood_block,
)
from hyperspline.interpolator import _point_kernel, _stencil_kernel
from hyperspline.operators import CATMULL_ROM

STRICT = BoundaryPolicy.STRICT
GHOST = BoundaryPolicy.LINEAR_GHOST


@pytest.fixture(scope="module")
def trig4():
    field = trig_product_field(4)
    grid = sample(field, [Axis(0.0, 0.5, 7)] * 4)
    return field, grid


class TestConstruction:
    @pytest.mark.parametrize("dim", [3, 4])
    def test_runtime_path_skips_exact_derivation(self, dim, monkeypatch):
        import hyperspline
        import hyperspline.cli
        import hyperspline.io

        def boom(*args, **kwargs):
            raise AssertionError("exact derivation reached at runtime")

        names = ("constraint_matrix", "difference_matrix", "integer_inverse")
        for mod in (hyperspline, hyperspline.operators,
                    hyperspline.interpolator, hyperspline.fields,
                    hyperspline.io, hyperspline.cli):
            for name in names:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, boom)
        grid = sample(trig_product_field(dim), [Axis(0.0, 0.5, 6)] * dim)
        with monkeypatch.context() as m:
            # nor does construction or evaluation build the operator
            m.setattr(hyperspline.interpolator, "operator_set", boom)
            interp = Interpolator(grid)
            p = [1.3] * dim
            interp.eval(p)
            interp.eval_with_gradient(p)
            interp.eval_local(ElementRef((1,) * dim), [0.5] * dim)
            interp.derivative(p, [1] * dim)
            interp.eval_batch(np.full((3, dim), 1.7))
            interp.precompute_all()
        assert not hasattr(interp, "operator")

    def test_vector_components(self):
        rng = np.random.default_rng(0)
        grid = RegularGrid([Axis(0, 1, 4)] * 4,
                           rng.standard_normal((4, 4, 4, 4, 3)),
                           components=3)
        interp = Interpolator(grid)
        assert interp.eval([1.5, 1.5, 1.5, 1.5]).shape == (3,)

    def test_short_axis_rejected_by_grid_layer(self):
        with pytest.raises(TooFewPointsError):
            Axis(0.0, 1.0, 3)

    def test_policy_from_string(self):
        grid = sample(constant_field(3), [Axis(0, 1, 4)] * 3)
        assert Interpolator(grid, "linear-ghost").policy is GHOST


class TestCoefficients:
    def test_constant_field(self):
        grid = sample(constant_field(4, 7.5), [Axis(0, 1, 5)] * 4)
        interp = Interpolator(grid)
        alpha = interp.coefficients(ElementRef((1, 1, 1, 1)))
        assert alpha.shape == (1, 256)
        assert alpha[0, 0] == pytest.approx(7.5, rel=1e-15)
        assert np.max(np.abs(alpha[0, 1:])) < 1e-13

    def test_linear_field_unit_spacing(self):
        grid = sample(linear_field(4, [1, 2, 3, 4]), [Axis(0, 1, 6)] * 4)
        interp = Interpolator(grid)
        elem = ElementRef((2, 1, 3, 2))
        alpha = interp.coefficients(elem)[0]
        base_value = 1 * 2 + 2 * 1 + 3 * 3 + 4 * 2
        expect = np.zeros(256)
        expect[0] = base_value
        expect[1], expect[4], expect[16], expect[64] = 1, 2, 3, 4
        assert_allclose(alpha, expect, atol=1e-12)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_matches_oracle_on_random_field(self, dim):
        rng = np.random.default_rng(1)
        field = tensor_polynomial_field(dim, 3, rng)
        grid = sample(field, [Axis(-1.0, 0.4, 6)] * dim)
        interp = Interpolator(grid)
        ranges = grid.element_base_range(STRICT)
        for _ in range(10):
            base = tuple(int(rng.integers(lo, hi + 1)) for lo, hi in ranges)
            got = interp.coefficients(ElementRef(base))
            want = oracle_coefficients(grid, ElementRef(base))
            assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    @pytest.mark.parametrize("dim, n, m", [(3, 13, 3), (4, 7, 3), (4, 7, 1)])
    def test_every_cell_matches_oracle(self, dim, n, m, policy):
        rng = np.random.default_rng(15)
        grid = RegularGrid([Axis(-1.0, 0.5, n)] * dim,
                           rng.standard_normal((n,) * dim + (m,)),
                           components=m)
        interp = Interpolator(grid, policy)
        lo, hi = np.array(grid.element_base_range(policy)).T
        for offset in np.ndindex(*(hi - lo + 1)):
            elem = ElementRef(tuple((lo + offset).tolist()))
            got = interp.coefficients(elem)
            assert got.shape == (m, 4 ** dim) and got.flags.c_contiguous
            want = oracle_coefficients(grid, elem, policy)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_computed_afresh_on_each_call(self):
        grid = sample(trig_product_field(3), [Axis(0, 0.5, 5)] * 3)
        interp = Interpolator(grid)
        a = interp.coefficients(ElementRef((1, 1, 1)))
        b = interp.coefficients(ElementRef((1, 1, 1)))
        assert a is not b
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dim", [3, 4])
    def test_invalid_element_is_programming_error(self, dim):
        grid = sample(constant_field(dim), [Axis(0, 1, 5)] * dim)
        interp = Interpolator(grid)
        with pytest.raises(IndexError, match="outside valid range"):
            interp.coefficients(ElementRef((0,) + (1,) * (dim - 1)))
        with pytest.raises(IndexError, match="outside valid range"):
            interp.eval_local(ElementRef((0,) * dim), [0.5] * dim)


class TestEval:
    def test_constant(self):
        grid = sample(constant_field(4, 5.0), [Axis(0, 1, 5)] * 4)
        interp = Interpolator(grid)
        for p in ([1.0, 1.0, 1.0, 1.0], [2.7, 1.3, 2.9, 1.01],
                  [3.0, 3.0, 3.0, 3.0]):
            assert interp.eval(p)[0] == pytest.approx(5.0, rel=1e-12)

    def test_linear_exactness(self):
        grid = sample(linear_field(4, [1, 2, 3, 4]), [Axis(0, 1, 5)] * 4)
        interp = Interpolator(grid)
        p = [1.25, 2.5, 2.0, 1.75]
        want = 1.25 + 2 * 2.5 + 3 * 2.0 + 4 * 1.75  # = 19.25
        assert interp.eval(p)[0] == pytest.approx(want, rel=1e-12)
        assert want == 19.25

    def test_multilinear_exactness(self):
        field = multilinear_field(4)
        grid = sample(field, [Axis(0.5, 0.5, 6)] * 4)
        interp = Interpolator(grid)
        rng = np.random.default_rng(2)
        dom = grid.queryable_domain(STRICT)
        for _ in range(50):
            p = np.array([rng.uniform(lo, hi) for lo, hi in dom])
            assert interp.eval(p)[0] == pytest.approx(
                field.value(p)[0], rel=1e-12)

    def test_out_of_domain(self):
        grid = sample(constant_field(3), [Axis(0, 1, 5)] * 3)
        interp = Interpolator(grid)
        with pytest.raises(OutOfDomainError):
            interp.eval([0.5, 2.0, 2.0])

    @pytest.mark.parametrize("u", [[np.nan, 0.5, 0.5], [0.5, -0.1, 0.5],
                                   [0.5, 0.5, 1.5]])
    def test_eval_local_rejects_bad_local_coordinates(self, u):
        grid = sample(constant_field(3), [Axis(0, 1, 5)] * 3)
        interp = Interpolator(grid)
        with pytest.raises(ValueError):
            interp.eval_local(ElementRef((1, 1, 1)), u)

    def test_vertex_reproduction(self, trig4):
        _, grid = trig4
        ok, metrics = check_vertex_reproduction(Interpolator(grid), 200, 3)
        assert ok, metrics

    def test_concurrent_queries_agree(self, trig4):
        _, grid = trig4
        interp = Interpolator(grid)
        p = [1.3, 1.4, 1.5, 1.6]
        results = []

        def query():
            results.append(interp.eval_with_gradient(p))

        threads = [threading.Thread(target=query) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert len(results) == 16
        for r in results[1:]:
            assert np.array_equal(r.values, results[0].values)
            assert np.array_equal(r.gradient, results[0].gradient)


class TestGradient:
    def test_planar_field_gradient(self):
        grid = sample(linear_field(4, [2, 0, 0, 3]), [Axis(0, 1, 5)] * 4)
        interp = Interpolator(grid)
        rng = np.random.default_rng(4)
        dom = grid.queryable_domain(STRICT)
        for _ in range(25):
            p = [rng.uniform(lo, hi) for lo, hi in dom]
            r = interp.eval_with_gradient(p)
            assert_allclose(r.gradient, [[2.0, 0.0, 0.0, 3.0]], atol=1e-12)

    def test_constant_gradient_zero(self):
        grid = sample(constant_field(3, 5.0), [Axis(0, 0.25, 5)] * 3)
        r = Interpolator(grid).eval_with_gradient([0.6, 0.55, 0.31])
        assert_allclose(r.gradient, np.zeros((1, 3)), atol=1e-12)

    def test_physical_unit_scaling(self):
        # same samples on axes with different spacing: slopes rescale
        grid = sample(linear_field(3, [4.0, 0, 0]),
                      [Axis(0, 0.25, 8), Axis(0, 1, 4), Axis(0, 1, 4)])
        r = Interpolator(grid).eval_with_gradient([0.8, 1.5, 1.5])
        assert r.gradient[0, 0] == pytest.approx(4.0, rel=1e-12)

    def test_matches_finite_difference_of_interpolant(self, trig4):
        _, grid = trig4
        interp = Interpolator(grid)
        rng = np.random.default_rng(5)
        dom = grid.queryable_domain(STRICT)
        for _ in range(30):
            p = np.array([rng.uniform(lo + 0.01, hi - 0.01)
                          for lo, hi in dom])
            r = interp.eval_with_gradient(p)
            for d in range(4):
                h = 1e-5 * grid.axes[d].spacing
                step = np.zeros(4)
                step[d] = h
                fd = (interp.eval(p + step)[0]
                      - interp.eval(p - step)[0]) / (2 * h)
                assert r.gradient[0, d] == pytest.approx(
                    fd, rel=1e-6, abs=1e-9)

    def test_values_match_eval_bitwise(self, trig4):
        _, grid = trig4
        interp = Interpolator(grid)
        p = [1.23, 0.77, 2.11, 1.05]
        assert np.array_equal(interp.eval(p),
                              interp.eval_with_gradient(p).values)


class TestExactnessClass:
    @pytest.mark.parametrize("dim", [3, 4])
    def test_tensor_quadratics_reproduced(self, dim):
        ok, metrics = check_quadratic_exactness(dim, 200, 6)
        assert ok, metrics

    def test_tensor_cubic_not_reproduced(self):
        # centered differences misestimate cubic slopes; the error must
        # be plainly visible, not rounding-level
        ok, metrics = check_cubic_inexactness(3, 200, 7)
        assert ok, metrics


class TestContinuity:
    def test_c1_across_faces(self, trig4):
        _, grid = trig4
        ok, metrics = check_c1_continuity(Interpolator(grid), 100, 8)
        assert ok, metrics

    def test_c2_jump_remains(self, trig4):
        # second partials are NOT continuous across faces, by design of
        # any cubic-spline scheme; this guards against "fixing" it
        _, grid = trig4
        ok, metrics = check_c2_jump(Interpolator(grid), 1, 8)
        assert ok, metrics


class TestLineReduction:
    def test_matches_catmull_rom_on_grid_lines(self):
        ok, metrics = check_line_reduction(100, 9)
        assert ok, metrics


class TestTimeSliceConsistency:
    def test_time_constant_4d_matches_3d(self):
        ok, metrics = check_time_slice(100, 10)
        assert ok, metrics


class TestNoCellState:
    """An interpolator keeps nothing per cell; ``precompute_all`` and
    ``cache_size`` stay only for existing callers."""

    def test_precompute_all_allocates_nothing(self):
        rng = np.random.default_rng(16)
        grid = RegularGrid([Axis(0.0, 0.1, 40)] * 3,
                           rng.standard_normal((40, 40, 40, 3)),
                           components=3)
        interp = Interpolator(grid)
        tracemalloc.start()
        try:
            interp.precompute_all()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_cache_size_stays_zero(self, trig4):
        _, grid = trig4
        interp = Interpolator(grid)
        interp.coefficients(ElementRef((1, 1, 1, 1)))
        assert interp.cache_size() == 0
        interp.eval_batch(np.full((5, 4), 1.3))
        assert interp.cache_size() == 0
        interp.precompute_all()
        assert interp.cache_size() == 0


class TestBatch:
    def test_matches_per_point_bitwise(self, trig4):
        _, grid = trig4
        interp = Interpolator(grid)
        rng = np.random.default_rng(12)
        dom = grid.queryable_domain(STRICT)
        pts = np.stack([rng.uniform(lo, hi, 500) for lo, hi in dom], axis=1)
        res = interp.eval_batch(pts)
        assert np.all(res.ok)
        for i in range(pts.shape[0]):
            r = interp.eval_with_gradient(pts[i])
            assert np.array_equal(res.values[i], r.values)
            assert np.array_equal(res.gradients[i], r.gradient)

    def test_out_of_domain_marked_not_fatal(self, trig4):
        _, grid = trig4
        interp = Interpolator(grid)
        pts = np.array([[1.0, 1.0, 1.0, 1.0],
                        [-5.0, 1.0, 1.0, 1.0],
                        [1.5, 1.5, 1.5, 1.5]])
        res = interp.eval_batch(pts)
        assert list(res.ok) == [True, False, True]
        assert np.all(np.isnan(res.values[1]))
        assert np.all(np.isnan(res.gradients[1]))
        with pytest.raises(OutOfDomainError):
            res[1]
        assert np.array_equal(res[0].values, res.values[0])

    def test_single_element_bulk(self, trig4):
        _, grid = trig4
        interp = Interpolator(grid)
        rng = np.random.default_rng(13)
        lo = [grid.axes[d].coordinate(1) for d in range(4)]
        pts = np.stack([lo[d] + rng.uniform(0, 1, 2000)
                        * grid.axes[d].spacing for d in range(4)], axis=1)
        res = interp.eval_batch(pts)
        for i in rng.integers(0, 2000, 25):
            r = interp.eval_with_gradient(pts[i])
            assert np.array_equal(res.values[i], r.values)
            assert np.array_equal(res.gradients[i], r.gradient)

    @pytest.mark.parametrize("threads", [2, 8])
    @pytest.mark.parametrize("slicing", [
        "8-of-100000", "1", "7", "one-chunk", "many-chunks"])
    def test_caller_slices_equal_one_call(self, trig4, slicing, threads):
        # a caller that wants more CPUs slices the points and runs the
        # slices on its own threads; concatenated, they give the bits of
        # one serial call, outside and NaN rows included
        _, grid = trig4
        interp = Interpolator(grid)
        chunk = interp._chunk
        rng = np.random.default_rng(14)
        dom = np.array(grid.queryable_domain(STRICT))
        n = 100_000 if slicing == "8-of-100000" else 3 * chunk + 17
        pts = rng.uniform(dom[:, 0], dom[:, 1], (n, 4))
        pts[rng.integers(0, n, 40)] = dom[:, 1] + 1.0
        pts[rng.integers(0, n, 40), 2] = np.nan
        if slicing == "8-of-100000":
            parts = np.array_split(pts, 8)
        else:
            k = {"1": 1, "7": 7, "one-chunk": chunk,
                 "many-chunks": 2 * chunk + 5}[slicing]
            parts = [pts[s:s + k] for s in range(0, n, k)]
        with ThreadPoolExecutor(threads) as pool:
            results = list(pool.map(interp.eval_batch, parts))
        one = interp.eval_batch(pts)
        assert 0 < np.count_nonzero(~one.ok) <= 80
        assert_rows_equal(
            [np.concatenate([getattr(r, f) for r in results])
             for f in ("values", "gradients", "ok")],
            (one.values, one.gradients, one.ok))

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_outside_chunk_heads_leave_inside_rows_unchanged(self, dim,
                                                               policy):
        # every chunk evaluates all its rows, an outside point at the head
        # of each one included; the inside rows read as in a batch with
        # no outside points
        rng = np.random.default_rng(30 + dim)
        axes = [Axis(-1.0, 0.5, 6), Axis(0.0, 0.25, 5), Axis(2.0, 1.5, 7),
                Axis(0.0, 0.4, 5)][:dim]
        grid = RegularGrid(
            axes, rng.standard_normal([a.count for a in axes][::-1] + [2]),
            components=2)
        interp = Interpolator(grid, policy)
        chunk = interp._chunk
        dom = np.array(grid.queryable_domain(policy))
        pts = rng.uniform(dom[:, 0], dom[:, 1], (3 * chunk + 17, dim))
        heads = np.arange(0, len(pts), chunk - 1)
        mixed = np.insert(pts, heads, dom[:, 1] + 1.0, axis=0)
        outside = np.zeros(len(mixed), dtype=bool)
        outside[heads + np.arange(len(heads))] = True
        assert outside[::chunk].all() and len(heads) > 3
        sliced = interp.eval_batch(pts)
        indexed = interp.eval_batch(mixed)
        assert sliced.ok.all() and indexed.ok.tolist() == (~outside).tolist()
        assert_rows_equal(
            (sliced.values, sliced.gradients),
            (indexed.values[~outside], indexed.gradients[~outside]))

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("dim", [3, 4])
    def test_outside_rows_are_nan(self, dim, workers):
        # every chunk evaluates all its rows; outside ones end up NaN and
        # flagged, whether they fill a whole chunk or sit at its first or
        # last position, and inside rows read as from the scalar query,
        # in one call or in slices on concurrent caller threads
        rng = np.random.default_rng(40 + dim)
        axes = [Axis(-1.0, 0.5, 6), Axis(0.0, 0.25, 5), Axis(2.0, 1.5, 7),
                Axis(0.0, 0.4, 5)][:dim]
        grid = RegularGrid(
            axes, rng.standard_normal([a.count for a in axes][::-1] + [2]),
            components=2)
        interp = Interpolator(grid)
        chunk = interp._chunk
        dom = np.array(grid.queryable_domain(STRICT))
        pts = rng.uniform(dom[:, 0], dom[:, 1], (3 * chunk + 5, dim))
        # per axis: NaN, +-inf, +-1e308, a unit below the domain and an
        # ulp above it
        far = np.stack([np.full(dim, np.nan), np.full(dim, np.inf),
                        np.full(dim, -np.inf), np.full(dim, 1e308),
                        np.full(dim, -1e308), dom[:, 0] - 1.0,
                        np.nextafter(dom[:, 1], np.inf)])
        outside = np.zeros(len(pts), dtype=bool)
        outside[[0, chunk - 1, 2 * chunk, 3 * chunk - 1, len(pts) - 1]] = True
        outside[chunk:2 * chunk] = True
        rows = np.flatnonzero(outside)
        pts[rows, rows % dim] = far[rows % len(far), rows % dim]
        values, gradients, ok = eval_sliced(interp, pts, int(workers))
        assert ok.tolist() == (~outside).tolist()
        assert np.isnan(values[outside]).all()
        assert np.isnan(gradients[outside]).all()
        for i in np.flatnonzero(~outside)[::7]:
            r = interp.eval_with_gradient(pts[i])
            assert r.values.tobytes() == values[i].tobytes()
            assert r.gradient.tobytes() == gradients[i].tobytes()

    @pytest.mark.parametrize("point", [[1e308, 0.5, 0.5], [0.5, -1e308, 0.5],
                                       [-1.7976931348623157e308, 1e300, 0.5]])
    def test_huge_coordinate_is_flagged_silently(self, point):
        # dividing it by a spacing below 1 overflows to inf
        grid = RegularGrid([Axis(0.0, 0.25, 5)] * 3, np.ones((5, 5, 5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = Interpolator(grid).eval_batch([point, [0.5] * 3])
        assert res.ok.tolist() == [False, True]
        assert np.isnan(res.values[0]).all()

    def test_empty_batch(self, trig4):
        _, grid = trig4
        res = Interpolator(grid).eval_batch(np.empty((0, 4)))
        assert len(res) == 0

    def test_bad_shape(self, trig4):
        _, grid = trig4
        with pytest.raises(ValueError):
            Interpolator(grid).eval_batch(np.zeros((5, 3)))

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("m", [1, 3])
    def test_default_chunk_within_budget(self, dim, m, monkeypatch):
        # the default chunk is the largest whose gathered samples fit in
        # 1.5 MB
        budget = 1.5 * 2 ** 20
        per_point = m * 4 ** dim * 8
        grid = RegularGrid([Axis(0.0, 1.0, 5)] * dim,
                           np.ones((5,) * dim + (m,)), components=m)
        blocks = []
        original = interpolator_module._stencils

        def gather(*args):
            blocks.append(original(*args))
            return blocks[-1]

        n = 2 * int(budget // per_point) + 5
        pts = np.random.default_rng(dim).uniform(1.0, 3.0, (n, dim))
        monkeypatch.setattr(interpolator_module, "_stencils", gather)
        res = Interpolator(grid).eval_batch(pts)
        assert res.ok.all() and len(blocks) == 3
        assert blocks[0].nbytes <= budget < blocks[0].nbytes + per_point
        assert sum(len(b) for b in blocks) == n


class TestLinearGhost:
    def test_linear_field_exact_to_grid_edge(self):
        field = linear_field(3, [1.0, -2.0, 0.5], offset=3.0)
        grid = sample(field, [Axis(0.0, 1.0, 5)] * 3)
        interp = Interpolator(grid, GHOST)
        rng = np.random.default_rng(15)
        for _ in range(100):
            p = rng.uniform(0.0, 4.0, 3)  # full grid, including edge cells
            r = interp.eval_with_gradient(p)
            assert r.values[0] == pytest.approx(field.value(p)[0], rel=1e-12)
            assert_allclose(r.gradient, field.gradient(p), atol=1e-11)

    def test_edge_cells_only_under_ghost(self):
        grid = sample(constant_field(3), [Axis(0, 1, 5)] * 3)
        p = [0.2, 0.2, 0.2]
        with pytest.raises(OutOfDomainError):
            Interpolator(grid, STRICT).eval(p)
        assert Interpolator(grid, GHOST).eval(p)[0] == pytest.approx(5.0)

    def test_interior_identical_under_both_policies(self, trig4):
        _, grid = trig4
        a = Interpolator(grid, STRICT)
        b = Interpolator(grid, GHOST)
        p = [1.3, 1.1, 0.9, 1.6]
        ra, rb = a.eval_with_gradient(p), b.eval_with_gradient(p)
        assert np.array_equal(ra.values, rb.values)
        assert np.array_equal(ra.gradient, rb.gradient)
        # random points of the strict domain and its 16 corners
        rng = np.random.default_rng(2)
        dom = grid.queryable_domain(STRICT)
        pts = np.stack([rng.uniform(lo, hi, 200) for lo, hi in dom], axis=1)
        pts[:16] = np.stack(np.meshgrid(*dom), axis=-1).reshape(-1, 4)
        ba, bb = a.eval_batch(pts), b.eval_batch(pts)
        assert ba.ok.all() and bb.ok.all()
        assert np.array_equal(ba.values, bb.values)
        assert np.array_equal(ba.gradients, bb.gradients)


class TestRawDerivative:
    def test_higher_partials_of_known_polynomial(self):
        rng = np.random.default_rng(16)
        field = tensor_polynomial_field(3, 2, rng)
        grid = sample(field, [Axis(-1.0, 0.5, 6)] * 3)
        interp = Interpolator(grid)
        p = np.array([0.1, -0.2, 0.3])
        assert interp.derivative(p, (0, 0, 0))[0] == pytest.approx(
            field.value(p)[0], rel=1e-10)
        for d in range(3):
            orders = [0, 0, 0]
            orders[d] = 1
            assert interp.derivative(p, orders)[0] == pytest.approx(
                field.gradient(p)[0, d], rel=1e-9, abs=1e-11)

    def test_mixed_partial_of_multilinear(self):
        field = multilinear_field(3)  # f = xyz, d3f/dxdydz = 1
        grid = sample(field, [Axis(0.5, 0.5, 6)] * 3)
        interp = Interpolator(grid)
        got = interp.derivative([1.3, 1.7, 2.1], (1, 1, 1))
        assert got[0] == pytest.approx(1.0, rel=1e-10)

    def test_order_validation(self):
        grid = sample(constant_field(3), [Axis(0, 1, 5)] * 3)
        interp = Interpolator(grid)
        with pytest.raises(ValueError):
            interp.derivative([1.5, 1.5, 1.5], (4, 0, 0))
        with pytest.raises(ValueError):
            interp.derivative([1.5, 1.5, 1.5], (1, 0))


def probe_points(grid, policy, rng, n=40):
    """Random points plus points exactly on faces and vertices, the upper
    domain corner, and points in the edge cells (ghost cells under
    LinearGhost, out of domain under Strict)."""
    dom = np.array(grid.queryable_domain(policy))
    lo, hi = dom[:, 0], dom[:, 1]
    dim = grid.dim
    inner = lo + rng.uniform(0, 1, (n, dim)) * (hi - lo)
    ranges = grid.element_base_range(policy)
    vertices = np.stack([
        [a.coordinate(int(rng.integers(lo_b, hi_b + 2)))
         for a, (lo_b, hi_b) in zip(grid.axes, ranges)]
        for _ in range(n)])
    faces = inner.copy()
    axis = rng.integers(0, dim, n)
    faces[np.arange(n), axis] = vertices[np.arange(n), axis]
    edge = inner.copy()
    first = np.array([a.origin + rng.uniform(0, a.spacing) for a in grid.axes])
    last = np.array([a.coordinate(a.count - 1) - rng.uniform(0, a.spacing)
                     for a in grid.axes])
    edge[: n // 2, axis[: n // 2]] = first[axis[: n // 2]]
    edge[n // 2:, axis[n // 2:]] = last[axis[n // 2:]]
    corners = np.array([lo, hi, [a.origin for a in grid.axes],
                        [a.coordinate(a.count - 1) for a in grid.axes]])
    return np.concatenate([inner, vertices, faces, edge, corners])


@pytest.fixture(scope="module", params=[
    pytest.param((3, 2), id="3"), pytest.param((4, 2), id="4"),
    pytest.param((3, 1), id="3-m1"), pytest.param((4, 1), id="4-m1")])
def kernel_case(request):
    dim, m = request.param
    rng = np.random.default_rng(20 + dim)
    axes = [Axis(-1.0, 0.5, 6), Axis(0.0, 0.25, 5), Axis(2.0, 1.5, 7),
            Axis(0.0, 0.4, 5)][:dim]
    counts = [a.count for a in axes]
    grid = RegularGrid(axes, rng.standard_normal(counts[::-1] + [m]),
                       components=m)
    cases = {}
    for policy in (STRICT, GHOST):
        interp = Interpolator(grid, policy)
        pts = probe_points(grid, policy, rng)
        scalar = []
        for p in pts:
            try:
                scalar.append(interp.eval_with_gradient(p))
            except OutOfDomainError:
                scalar.append(None)
        cases[policy] = (interp, pts, scalar)
    return cases


def scalar_table(interp, scalar):
    """Scalar results as batch-shaped ``(values, gradients, ok)``, NaN
    where the scalar query was out of domain."""
    n, m, dim = len(scalar), interp.components, interp.dim
    values, gradients = np.full((n, m), np.nan), np.full((n, m, dim), np.nan)
    for i, r in enumerate(scalar):
        if r is not None:
            values[i], gradients[i] = r.values, r.gradient
    return values, gradients, np.array([r is not None for r in scalar])


def chunk_rows(interp, n, batch):
    """Probe-point rows for one full chunk ("full") or for more than two
    chunks with a partial last one ("multi"), the n probe points tiled."""
    chunk = interp._chunk
    size = chunk if batch == "full" else 2 * chunk + n // 2
    return np.resize(np.arange(n), size)


def assert_rows_equal(got, want):
    """Batch-shaped results equal bit for bit, NaN rows included."""
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


def polynomial_partials(coeffs, u, orders):
    """The ``(m, 2^dim)`` unit-cell partials, in the kernels' columns, of
    the cubics with monomial coefficients ``coeffs`` at ``u``: column s
    differentiates axis d ``orders[d]`` times if bit d of s is set. Also
    returns each entry's sum of absolute terms, the scale of its
    rounding."""
    dim = len(u)
    perm = np.array([[math.perm(e, k) for k in range(4)] for e in range(4)])
    exps = np.indices((4,) * dim).reshape(dim, 1, -1)[::-1]
    bits = (np.arange(2 ** dim) >> np.arange(dim)[:, None]) & 1
    cols = (bits * np.array(orders)[:, None])[:, :, None]  # (dim, 2^dim, 1)
    lowered = np.maximum(exps - cols, 0)
    dpow = np.prod(perm[exps, cols] * u[:, None, None] ** lowered, axis=0)
    return coeffs @ dpow.T, np.abs(coeffs) @ np.abs(dpow.T)


def eval_sliced(interp, pts, workers, size=None):
    """``eval_batch`` over consecutive slices of ``pts``, concatenated as
    batch-shaped ``(values, gradients, ok)``. Slices hold ``size`` rows,
    or split the points into ``workers`` parts; with more than one worker
    they run at once on a pool of caller threads sharing ``interp``.
    Slicing keeps the layout of ``pts``: a list stays a list, a strided
    view stays strided."""
    size = size or -(-len(pts) // workers)
    parts = [pts[s:s + size] for s in range(0, len(pts), size)]
    if workers == 1:
        results = [interp.eval_batch(p) for p in parts]
    else:
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(interp.eval_batch, parts))
    return [np.concatenate([getattr(r, f) for r in results])
            for f in ("values", "gradients", "ok")]


class TestSharedKernel:
    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("batch", ["1", "7", "full", "multi"])
    def test_batch_equals_scalar_bitwise(self, kernel_case, policy,
                                         workers, batch):
        # "workers" caller threads share the interpolator, each
        # evaluating its own slices of the points
        interp, pts, scalar = kernel_case[policy]
        want = scalar_table(interp, scalar)
        if batch in ("1", "7"):
            got = eval_sliced(interp, pts, int(workers), int(batch))
        else:
            rows = chunk_rows(interp, len(pts), batch)
            got = eval_sliced(interp, pts[rows], int(workers))
            want = [w[rows] for w in want]
        if policy is GHOST:
            assert got[2].all()
        assert_rows_equal(got, want)

    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_locate_matches_batch_locate_bitwise(self, kernel_case, policy):
        interp, pts, scalar = kernel_case[policy]
        # and the floats either side of every probe coordinate
        pts = np.concatenate([pts, np.nextafter(pts, -np.inf),
                              np.nextafter(pts, np.inf)])
        bases, u, ok = locate_points(interp.grid, pts, policy)
        for i, p in enumerate(pts):
            try:
                elem, u_i = locate(interp.grid, p, policy)
            except OutOfDomainError:
                assert not ok[i]
                continue
            assert ok[i]
            assert elem.base == tuple(bases[i].tolist())
            assert u_i.tobytes() == u[:, i].tobytes()

    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_eval_and_first_derivatives_match_gradient_bitwise(
            self, kernel_case, policy):
        interp, pts, scalar = kernel_case[policy]
        for p, r in zip(pts, scalar):
            if r is None:
                continue
            assert np.array_equal(interp.eval(p), r.values)
            for d in range(interp.dim):
                orders = [0] * interp.dim
                orders[d] = 1
                assert np.array_equal(interp.derivative(p, orders),
                                      r.gradient[:, d])

    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_matches_coefficient_polynomial(self, kernel_case, policy):
        # reference: the dense-solve oracle's monomial coefficients,
        # evaluated directly; summation order differs, so rounding-level
        # agreement
        interp, pts, scalar = kernel_case[policy]
        grid = interp.grid
        scale = np.max(np.abs(grid.values))
        exps = np.indices((4,) * interp.dim).reshape(interp.dim, -1)[::-1]
        for p, r in zip(pts, scalar):
            if r is None:
                continue
            elem, u = locate(grid, p, policy)
            coeffs = oracle_coefficients(grid, elem, policy)
            powers = np.prod(u[:, None] ** exps, axis=0)
            assert_allclose(r.values, coeffs @ powers, rtol=0,
                            atol=1e-12 * scale)
            for d in range(interp.dim):
                lower = exps.copy()
                lower[d] = np.maximum(lower[d] - 1, 0)
                dpow = exps[d] * np.prod(u[:, None] ** lower, axis=0)
                assert_allclose(r.gradient[:, d],
                                coeffs @ dpow / grid.axes[d].spacing,
                                rtol=0, atol=1e-12 * scale
                                / grid.axes[d].spacing)


    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("layout", ["strided", "fortran", "list"])
    def test_batch_equals_scalar_for_any_point_layout(
            self, kernel_case, policy, workers, layout):
        # across chunk boundaries, with the last chunk partial, in one
        # call or in slices on concurrent caller threads
        interp, pts, scalar = kernel_case[policy]
        rows = chunk_rows(interp, len(pts), "multi")
        pts = pts[rows]
        if layout == "strided":
            wide = np.zeros((2 * len(pts), interp.dim + 1))
            wide[::2, 1:] = pts
            pts = wide[::2, 1:]
        elif layout == "fortran":
            pts = np.asfortranarray(pts)
        else:
            pts = pts.tolist()
        assert_rows_equal(eval_sliced(interp, pts, int(workers)),
                          [w[rows] for w in scalar_table(interp, scalar)])

    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_eval_equals_zero_order_derivative_bitwise(self, kernel_case,
                                                       policy):
        interp, pts, scalar = kernel_case[policy]
        for p, r in zip(pts, scalar):
            if r is not None:
                assert np.array_equal(
                    interp.derivative(p, (0,) * interp.dim), interp.eval(p))

    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    @pytest.mark.parametrize("orders", [
        (2, 0, 0, 0), (0, 3, 0, 0), (1, 2, 0, 1), (2, 1, 3, 0), (1, 1, 1, 2),
        (3, 3, 3, 3)],
        ids=["xx", "yyy", "mixed-1-2-0-1", "mixed-2-1-3-0", "mixed-1-1-1-2",
             "all-3"])
    def test_higher_orders_match_coefficient_polynomial(
            self, kernel_case, policy, orders):
        # rounding level relative to the reference's sum of absolute
        # terms over the cell (at u = 1), which grows with the order: at
        # the point's own u the sum can be one coefficient formed by
        # cancellation (at u = 0), which correct code misses by 1.8e-11
        # of it under the order vector (1, 1, 1, 2)
        interp, pts, scalar = kernel_case[policy]
        grid = interp.grid
        orders = orders[:interp.dim]
        col = sum(1 << d for d, k in enumerate(orders) if k)
        scale = np.prod([a.spacing ** k for a, k in zip(grid.axes, orders)])
        for p, r in zip(pts, scalar):
            if r is None:
                continue
            elem, u = locate(grid, p, policy)
            coeffs = oracle_coefficients(grid, elem, policy)
            want, _ = polynomial_partials(coeffs, u, orders)
            _, terms = polynomial_partials(coeffs, np.ones(grid.dim), orders)
            assert_allclose(interp.derivative(p, orders), want[:, col] / scale,
                            rtol=0, atol=1e-12 * np.max(terms[:, col]) / scale)

    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    @pytest.mark.parametrize(
        "dim, m", [(d, m) for d in (3, 4) for m in (1, 2, 3, 5)],
        ids=[f"{d}" if m == 3 else f"{d}-m{m}" for d in (3, 4)
             for m in (1, 2, 3, 5)])
    def test_point_kernel_equals_batch_kernel_bitwise(self, dim, m, policy):
        # the one-point kernel behind every single-point query against the
        # batch kernel's row for that point, byte for byte, and its higher
        # orders, which only it computes (every order vector in 3D, a
        # seeded set in 4D), in all 2^dim columns against the dense-solve
        # oracle's polynomial; on the lowest and highest cells (the edge
        # cells under LinearGhost) and random ones, at u entries of 0, 1
        # and inside the cell. The bound is the rounding level of
        # test_higher_orders_match_coefficient_polynomial, taken on the
        # sum of absolute terms over the cell (at u = 1): at u = 0 a column
        # is one coefficient, which both sides form by cancellation from
        # samples up to 1e3 times its size. The component counts give the
        # products row counts 4^(dim-1)·m·2^j that fall differently on
        # BLAS's row blocks
        rng = np.random.default_rng(70 + 10 * dim + m)
        counts = [6, 5, 7, 5][:dim]
        grid = RegularGrid([Axis(-1.0, 0.5, n) for n in counts],
                           rng.standard_normal(counts[::-1] + [m]),
                           components=m)
        lo, hi = np.array(grid.element_base_range(policy)).T
        bases = [lo, hi, *rng.integers(lo, hi + 1, (4, dim))]
        all_orders = (list(itertools.product(range(4), repeat=3)) if dim == 3
                      else [tuple(o) for o in rng.integers(0, 4, (32, 4))])
        for base in bases:
            elem = ElementRef(tuple(base.tolist()))
            block = neighborhood_block(grid, elem, policy)
            coeffs = oracle_coefficients(grid, elem, policy)
            for u in (np.zeros(dim), np.ones(dim), rng.uniform(0, 1, dim),
                      rng.choice([0.0, 1.0, rng.uniform()], dim)):
                want = _stencil_kernel(block[None], u[:, None])[0]
                got = _point_kernel(block, u)
                assert got.shape == want.shape == (m, 2 ** dim)
                assert got.tobytes() == want.tobytes(), (base, u)
                for orders in all_orders:
                    want = polynomial_partials(coeffs, u, orders)[0]
                    _, terms = polynomial_partials(coeffs, np.ones(dim),
                                                   orders)
                    got = _point_kernel(block, u, orders)
                    assert got.shape == (m, 2 ** dim)
                    assert np.all(np.abs(got - want)
                                  <= 1e-12 * terms.max(axis=0)), (
                        base, u, orders)


@functools.cache
def exact_weights(u, order):
    """The ``(4, 2)`` Catmull-Rom weights at ``u``, value and ``order``-th
    derivative, in exact rational arithmetic on ``CATMULL_ROM``, as
    float64 (exact for the dyadic ``u`` of the tests)."""
    basis = [[Fraction(c) for c in row] for row in CATMULL_ROM]
    u = Fraction(u)
    return np.array([[sum(basis[i][j] * math.perm(i, r) * u ** (i - r)
                          for i in range(r, 4)) for r in (0, order)]
                     for j in range(4)], dtype=float)


class TestPowerBasisWeights:
    # on one-hot stencils (the identity, one component per stencil row)
    # a kernel returns the product over axes of its weight tables, the
    # Kronecker product of the 3 axes' (4, 2) tables, and every 4-term
    # sum has one nonzero term; at u in {0, 1/4, 1/2, 3/4, 1} each
    # weight and product is a small dyadic rational, so correct weights
    # give the exact table bit for bit (float == compares every bit but
    # a zero's sign, which the reference's products set their own way)
    U = [0.0, 0.25, 0.5, 0.75, 1.0]
    EYE = np.eye(64)

    def want(self, u, orders):
        tables = [exact_weights(float(q), r) for q, r in zip(u, orders)]
        return np.kron(np.kron(tables[2], tables[1]), tables[0])

    def test_batch_kernel_weights_are_exact(self):
        u = np.array(list(itertools.product(self.U, repeat=3)))
        got = _stencil_kernel(np.tile(self.EYE, (len(u), 1, 1)), u.T)
        for q, part in zip(u, got):
            assert np.array_equal(part, self.want(q, (1, 1, 1))), q

    def test_point_kernel_weights_are_exact(self):
        for q in itertools.product(self.U, repeat=3):
            q = np.array(q)
            got = _point_kernel(self.EYE, q)
            assert np.array_equal(got, self.want(q, (1, 1, 1))), q
            for orders in itertools.product(range(4), repeat=3):
                got = _point_kernel(self.EYE, q, orders)
                assert np.array_equal(got, self.want(q, orders)), (q, orders)

    @pytest.mark.parametrize("u, vertex", [(0.0, 1), (1.0, 2)])
    def test_value_weights_at_the_vertices_are_unit_vectors(self, u,
                                                            vertex):
        assert np.array_equal(exact_weights(u, 1)[:, 0], np.eye(4)[vertex])
        row = vertex * (1 + 4 + 16)  # that vertex on every axis
        for got in (_point_kernel(self.EYE, np.full(3, u)),
                    _stencil_kernel(self.EYE[None], np.full((3, 1), u))[0]):
            assert got[:, 0].tobytes() == self.EYE[row].tobytes()


# every public way to query one point, plus eval_batch on a one-row batch
POINT_CALLS = [
    pytest.param(lambda f, p: f.eval(p), id="eval"),
    pytest.param(lambda f, p: f.eval_with_gradient(p),
                 id="eval_with_gradient"),
    pytest.param(lambda f, p: f.derivative(p, (1, 0, 0)), id="derivative"),
    pytest.param(lambda f, p: locate(f.grid, p, f.policy), id="locate"),
    pytest.param(lambda f, p: f.eval_batch([p]), id="eval_batch"),
]


class TestMalformedPoints:
    @pytest.fixture(scope="class")
    def interp(self):
        return Interpolator(sample(constant_field(3), [Axis(0, 1, 5)] * 3))

    def test_error_classes(self):
        assert issubclass(DimensionMismatchError, HypersplineError)
        assert issubclass(DimensionMismatchError, ValueError)
        assert issubclass(InvalidPointError, HypersplineError)

    @pytest.mark.parametrize("call", POINT_CALLS)
    @pytest.mark.parametrize("point", [
        [1.5, 1.5], [1.5] * 4, [[1.5] * 3], 1.5, []],
        ids=["2", "4", "1x3", "scalar", "empty"])
    def test_wrong_arity(self, interp, call, point):
        with pytest.raises(DimensionMismatchError, match="3"):
            call(interp, point)

    @pytest.mark.parametrize("call", POINT_CALLS)
    @pytest.mark.parametrize("point", [
        [1.5 + 0j, 1.5, 1.5], np.full(3, 1.5 + 1e-3j), [1.5, "x", 1.5],
        [1.5, None, 1.5], [1.5, [1.5], 1.5]],
        ids=["complex", "complex-array", "text", "none", "ragged"])
    def test_complex_or_non_numeric(self, interp, call, point):
        with pytest.raises(InvalidPointError):
            call(interp, point)

    def test_eval_batch_bad_shapes(self, interp):
        for pts in (np.zeros(3), np.zeros((5, 2)), np.zeros((2, 3, 1))):
            with pytest.raises(DimensionMismatchError):
                interp.eval_batch(pts)

    def test_element_local_coordinates_and_orders_arity(self, interp):
        with pytest.raises(DimensionMismatchError):
            interp.eval_local(ElementRef((1, 1, 1)), [0.5, 0.5])
        with pytest.raises(DimensionMismatchError):
            interp.derivative([1.5] * 3, (1, 0))
        with pytest.raises(InvalidPointError):
            interp.eval_local(ElementRef((1, 1, 1)), [0.5, 0.5j, 0.5])
        for short in (ElementRef((1, 1)), ElementRef((1, 1, 1, 1))):
            with pytest.raises(DimensionMismatchError):
                interp.eval_local(short, [0.5] * 3)
            with pytest.raises(DimensionMismatchError):
                interp.coefficients(short)


class TestElementOutOfRange:
    """An element base outside the policy's range raises the typed
    ElementOutOfRangeError from every entry point that takes one; it is
    still the IndexError those raised before."""

    def test_error_class(self):
        assert issubclass(ElementOutOfRangeError, HypersplineError)
        assert issubclass(ElementOutOfRangeError, IndexError)

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_every_entry_point(self, dim, policy):
        grid = sample(constant_field(dim), [Axis(0, 1, 5)] * dim)
        interp = Interpolator(grid, policy)
        (lo, hi), = set(grid.element_base_range(policy))
        for b in (lo - 1, hi + 1):
            elem = ElementRef((lo,) * (dim - 1) + (b,))
            for call in (lambda: neighborhood_block(grid, elem, policy),
                         lambda: interp.eval_local(elem, [0.5] * dim),
                         lambda: interp.coefficients(elem),
                         lambda: oracle_coefficients(grid, elem, policy)):
                with pytest.raises(ElementOutOfRangeError,
                                   match=f"under {policy.value}"):
                    call()


class TestInvalidArguments:
    """Arguments other than points that are not of their type or out of
    range raise the typed InvalidArgumentError (DimensionMismatchError
    for a sample array of the wrong size), both also ValueErrors."""

    @pytest.fixture(scope="class")
    def interp(self):
        return Interpolator(sample(constant_field(3), [Axis(0, 1, 5)] * 3))

    def test_error_class(self):
        assert issubclass(InvalidArgumentError, HypersplineError)
        assert issubclass(InvalidArgumentError, ValueError)

    @pytest.mark.parametrize("orders", [(4, 0, 0), (0, -1, 0), (0, 0, 7)])
    def test_derivative_order_out_of_range(self, interp, orders):
        with pytest.raises(InvalidArgumentError, match="0..3"):
            interp.derivative([1.5] * 3, orders)

    @pytest.mark.parametrize("u", [[0.5, 1.5, 0.5], [-0.1, 0.5, 0.5],
                                   [0.5, 0.5, np.nan]],
                             ids=["above", "below", "nan"])
    def test_local_coordinates_out_of_range(self, interp, u):
        with pytest.raises(InvalidArgumentError, match=r"\[0, 1\]"):
            interp.eval_local(ElementRef((1, 1, 1)), u)

    @pytest.mark.parametrize("order", [1.7, "a", None, True, 1.0],
                             ids=["fraction", "text", "none", "bool",
                                  "float"])
    def test_derivative_order_not_integer(self, interp, order):
        with pytest.raises(InvalidArgumentError, match="integers in 0..3"):
            interp.derivative([1.5] * 3, (order, 0, 0))

    @pytest.mark.parametrize("order", [np.int64(1), np.uint8(1)])
    def test_derivative_integer_orders_accepted(self, interp, order):
        assert np.array_equal(interp.derivative([1.5] * 3, (order, 0, 0)),
                              interp.derivative([1.5] * 3, (1, 0, 0)))

    @pytest.mark.parametrize("orders", [None, 5])
    def test_derivative_orders_not_a_sequence(self, interp, orders):
        with pytest.raises(InvalidArgumentError, match="integers in 0..3"):
            interp.derivative([1.5] * 3, orders)

    @pytest.mark.parametrize("call", [
        lambda f, e: f.eval_local(e, [0.5] * 3),
        lambda f, e: f.coefficients(e)], ids=["eval_local", "coefficients"])
    @pytest.mark.parametrize("elem", [(1, 1, 1), None, [1, 1, 1]],
                             ids=["tuple", "None", "list"])
    def test_element_not_an_element_ref(self, interp, call, elem):
        with pytest.raises(InvalidArgumentError, match="ElementRef"):
            call(interp, elem)

    @pytest.mark.parametrize("make, error", [
        (lambda grid: Interpolator(grid, "bogus"), InvalidArgumentError),
        (lambda grid: RegularGrid(grid.axes, np.zeros(64), components=0),
         InvalidArgumentError),
        (lambda grid: RegularGrid(grid.axes, np.zeros(63)),
         DimensionMismatchError),
        (lambda grid: RegularGrid(grid.axes, np.zeros(64),
                                  component_names=("a", "b")),
         InvalidArgumentError),
        (lambda grid: RegularGrid(grid.axes, ["a"] * 64),
         InvalidArgumentError),
        (lambda grid: RegularGrid(grid.axes, np.full(64, 1 + 2j)),
         InvalidArgumentError),
        (lambda grid: Axis("a", 1, 4), InvalidArgumentError),
        (lambda grid: Axis(0, 1, 4.5), InvalidArgumentError),
        (lambda grid: RegularGrid([1, 2, 3], np.zeros(64)),
         InvalidArgumentError),
        (lambda grid: RegularGrid(5, np.zeros(64)), InvalidArgumentError),
        (lambda grid: RegularGrid(None, np.zeros(64)), InvalidArgumentError),
        (lambda grid: RegularGrid(grid.axes[:2] + ("x",), np.zeros(64)),
         InvalidArgumentError),
        (lambda grid: Interpolator("grid"), InvalidArgumentError),
        (lambda grid: ElementRef(("a", 1, 1)), InvalidArgumentError),
        (lambda grid: ElementRef((1.5, 1, 1)), InvalidArgumentError),
        (lambda grid: ElementRef(None), InvalidArgumentError),
    ], ids=["policy", "components", "sample-count", "component-names",
            "text-samples", "complex-samples", "axis-origin", "axis-count",
            "axes-ints", "axes-int", "axes-None", "axes-mixed",
            "grid-text", "element-text", "element-fraction", "element-None"])
    def test_constructor_rejects_bad_argument(self, make, error):
        grid = sample(constant_field(3), [Axis(0, 1, 4)] * 3)
        with pytest.raises(error):
            make(grid)


HUGE = 10 ** 5000  # past Python's 4,300-digit limit on int -> str


class TestIntegersPastDigitLimit:
    """A typed error whose message shows an integer too long to convert
    to text shows its bit count instead; building the message raised
    Python's untyped ValueError."""

    @pytest.fixture(scope="class")
    def interp(self):
        return Interpolator(sample(constant_field(3), [Axis(0, 1, 5)] * 3))

    @pytest.mark.parametrize("call, error", [
        (lambda f: ElementRef((HUGE, "a")), InvalidArgumentError),
        (lambda f: neighborhood_block(f.grid, ElementRef((HUGE, 1, 1)),
                                      STRICT), ElementOutOfRangeError),
        (lambda f: neighborhood_block(f.grid, ElementRef((HUGE, 1)),
                                      STRICT), DimensionMismatchError),
        (lambda f: f.eval_local(ElementRef((1, HUGE, 1)), [0.5] * 3),
         ElementOutOfRangeError),
        (lambda f: f.coefficients(ElementRef((1, 1, -HUGE))),
         ElementOutOfRangeError),
        (lambda f: f.grid.vertex_value((HUGE, 0, 0)), InvalidArgumentError),
        (lambda f: f.grid.vertex_value((0, 0, 0), HUGE),
         InvalidArgumentError),
        (lambda f: f.grid.vertex_value((0, HUGE)), DimensionMismatchError),
        (lambda f: f.derivative([1.5] * 3, (HUGE, 0, 0)),
         InvalidArgumentError),
        (lambda f: f.derivative([1.5] * 3, (0, HUGE)),
         DimensionMismatchError),
        (lambda f: f.eval_batch(np.full((2, 3), 1.5))[HUGE],
         PointIndexError),
        (lambda f: RegularGrid(f.grid.axes, np.zeros(125), components=HUGE),
         DimensionMismatchError),
        (lambda f: RegularGrid(f.grid.axes, np.zeros(125),
                               component_names=[HUGE]),
         InvalidArgumentError),
        (lambda f: Interpolator(f.grid, HUGE), InvalidArgumentError),
        (lambda f: Interpolator(HUGE), InvalidArgumentError),
        (lambda f: Axis(0, 1, -HUGE), TooFewPointsError),
    ], ids=["element-ref", "gather-range", "gather-length", "eval_local",
            "coefficients", "vertex-index", "vertex-component",
            "vertex-length", "derivative-order", "derivative-length",
            "batch-index", "components", "component-names", "policy",
            "grid", "axis-count"])
    def test_typed_error_shows_bit_count(self, interp, call, error):
        with pytest.raises(error, match="<int of 16610 bits>"):
            call(interp)


@pytest.fixture(scope="module", params=[3, 4], ids=["6^3x2", "6^4x2"])
def six_grid(request):
    dim = request.param
    rng = np.random.default_rng(30 + dim)
    axes = [Axis(-1.0, 0.5, 6), Axis(0.0, 0.25, 6), Axis(2.0, 1.5, 6),
            Axis(0.0, 0.4, 6)][:dim]
    return RegularGrid(axes, rng.standard_normal((6,) * dim + (2,)),
                       components=2)


def every_base(grid, policy):
    ranges = grid.element_base_range(policy)
    mesh = np.meshgrid(*[np.arange(lo, hi + 1) for lo, hi in ranges],
                       indexing="ij")
    return [tuple(b) for b in np.stack(mesh, axis=-1).reshape(-1, grid.dim)
            .tolist()]


class TestScalarPath:
    """The one-element gather (a range check and one ``take`` of the
    ghost-padded samples) against the batch gather, on every element,
    edge cells under ``LinearGhost`` included."""

    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_block_equals_gather_bitwise(self, six_grid, policy):
        for base in every_base(six_grid, policy):
            got = neighborhood_block(six_grid, ElementRef(base), policy)
            want = _stencils(six_grid, np.array([base]))[0]
            assert np.array_equal(got, want), base

    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    def test_scalar_equals_batch_on_every_element(self, six_grid, policy):
        # at each cell's centre and at its u = 0 and u = 1 corners
        interp = Interpolator(six_grid, policy)
        axes = six_grid.axes
        pts = np.array([
            [a.coordinate(b + o) + h * a.spacing for a, b in zip(axes, base)]
            for o, h in ((0, 0.5), (0, 0.0), (1, 0.0))
            for base in every_base(six_grid, policy)])
        res = interp.eval_batch(pts)
        assert res.ok.all()
        for i, p in enumerate(pts):
            r = interp.eval_with_gradient(p)
            assert np.array_equal(r.values, res.values[i]), p
            assert np.array_equal(r.gradient, res.gradients[i]), p


class TestResultsOwnTheirArrays:
    """A scalar result owns its arrays, so a result a caller keeps holds
    no kernel buffer alive; a BatchResult row stays a view of its batch."""

    @pytest.fixture(scope="class")
    def interp3(self):
        rng = np.random.default_rng(60)
        grid = RegularGrid([Axis(0.0, 0.5, 6)] * 4,
                           rng.standard_normal((6,) * 4 + (3,)), components=3)
        return Interpolator(grid)

    def test_scalar_arrays_have_no_base(self, interp3):
        p = [1.1, 1.2, 1.3, 1.4]
        r = interp3.eval_with_gradient(p)
        local = interp3.eval_local(ElementRef((2, 2, 3, 3)), [0.25] * 4)
        for a in (interp3.eval(p), r.values, r.gradient, local.values,
                  local.gradient, interp3.derivative(p, (0, 0, 0, 0)),
                  interp3.derivative(p, (1, 0, 2, 0))):
            assert a.base is None

    def test_batch_row_is_a_view_of_its_batch(self, interp3):
        batch = interp3.eval_batch(np.full((3, 4), 1.3))
        assert batch[1].values.base is batch.values
        assert batch[1].gradient.base is batch.gradients

    def test_kept_eval_results_stay_small(self, interp3):
        # a view of the value column would pin the kernel's (1, m, 2^dim)
        # partials: about 650 B per kept 3-component result
        rng = np.random.default_rng(61)
        pts = rng.uniform(0.5, 2.0, (5000, 4)).tolist()
        interp3.eval(pts[0])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [interp3.eval(p) for p in pts]
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (after - before) / len(kept) < 200


class TestLayerAttribution:
    """Each scalar query locates and gathers exactly once, through the
    module-level names that profilers and tracers wrap."""

    @pytest.mark.parametrize("method", ["eval", "eval_with_gradient",
                                        "derivative"])
    def test_one_locate_one_gather(self, trig4, method, monkeypatch):
        calls = Counter()
        for name in ("locate", "neighborhood_block"):
            original = getattr(interpolator_module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(interpolator_module, name, counted)
        interp = Interpolator(trig4[1])
        args = ([1.3, 1.1, 0.9, 1.6],)
        if method == "derivative":
            args += ((1, 0, 0, 0),)
        getattr(interp, method)(*args)
        assert calls == {"locate": 1, "neighborhood_block": 1}

    def test_ghost_edge_cell_takes_one_block(self, trig4, monkeypatch):
        # a LinearGhost edge cell reads the grid's ghost layers through
        # the same one-element gather as an interior cell
        calls = Counter()
        for module, name in ((interpolator_module, "neighborhood_block"),
                             (interpolator_module, "_stencils"),
                             (grid_module, "_stencils")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        interp = Interpolator(trig4[1], GHOST)
        elem, _ = locate(trig4[1], [0.1, 2.9, 0.2, 1.6], GHOST)
        assert elem.base == (0, 5, 0, 3)
        interp.eval_with_gradient([0.1, 2.9, 0.2, 1.6])
        assert calls == {"neighborhood_block": 1}


def exact_results_digest() -> str:
    """sha256 over ``eval``, ``eval_with_gradient``, ``eval_local``,
    ``derivative`` (every order set in 0..3) and ``eval_batch`` outputs
    on a 13^3 x 3 and a 7^4 x 3 grid under both policies.

    Samples are integers in [-16, 16], origins and spacings powers of
    two and every query sits at a local coordinate in {0, 1/4, 1/2,
    3/4, 1}, so every weight, product and sum is a dyadic rational that
    float64 holds exactly: the digest does not depend on the order in
    which BLAS sums or on its use of fused multiply-adds, only on the
    cells, local coordinates, weights and scalings the program picks.
    """
    h = hashlib.sha256()
    for dim, count in ((3, 13), (4, 7)):
        rng = np.random.default_rng(dim)
        axes = [Axis(d - 2.0, 0.5 ** (1 + d % 2), count) for d in range(dim)]
        grid = RegularGrid(axes, rng.integers(-16, 17, count ** dim * 3),
                           components=3)
        for policy in BoundaryPolicy:
            interp = Interpolator(grid, policy)
            lo, hi = grid.element_base_range(policy)[0]  # same on every axis
            bases = rng.integers(lo, hi + 1, (40, dim))
            u = rng.integers(0, 4, (40, dim)) / 4
            u[-1] = 1.0  # the top corner of the domain
            bases[-1] = hi
            pts = np.array([[a.coordinate(b) + q * a.spacing
                             for a, b, q in zip(axes, bp, uq)]
                            for bp, uq in zip(bases, u)])
            outside = np.array([pts[0] - 9.0, np.full(dim, np.nan)])
            res = interp.eval_batch(np.vstack([pts, outside]))
            for a in (res.values, res.gradients, res.ok):
                h.update(a.tobytes())
            for p, base, uq in zip(pts, bases, u):
                r = interp.eval_with_gradient(p)
                s = interp.eval_local(ElementRef(tuple(base)), uq)
                for a in (interp.eval(p), r.values, r.gradient, s.values,
                          s.gradient):
                    h.update(a.tobytes())
            for p in pts[:3]:
                for orders in itertools.product(range(4), repeat=dim):
                    h.update(interp.derivative(p, orders).tobytes())
    return h.hexdigest()


class TestPinnedResults:
    def test_results_digest(self):
        # recorded when the scalar path stopped re-checking what locate
        # produced; any change to a result on these grids changes it
        assert exact_results_digest() == (
            "1110e04fca08b2674b0f27f1bb1afcb77e5b81ffb0e9ffff0f612d1f58ff0b33")


class TestBatchIndex:
    @pytest.fixture(scope="class")
    def batch(self, trig4):
        pts = np.array([[1.0, 1.0, 1.0, 1.0], [-5.0, 1.0, 1.0, 1.0],
                        [1.5, 1.5, 1.5, 1.5]])
        return Interpolator(trig4[1]).eval_batch(pts)

    @pytest.mark.parametrize("i", [0, 2, -1, -3, np.int64(2), np.uint8(0)])
    def test_integer_index(self, batch, i):
        r = batch[i]
        assert isinstance(r, QueryResult)
        assert np.array_equal(r.values, batch.values[i])
        assert np.array_equal(r.gradient, batch.gradients[i])

    @pytest.mark.parametrize("i", [True, False, np.bool_(False), [0], (0,),
                                   slice(0, 2), 0.0, np.array(0), "0", None])
    def test_non_integer_index(self, batch, i):
        with pytest.raises(InvalidArgumentError, match="batch index"):
            batch[i]

    @pytest.mark.parametrize("i", [3, -4, 2 ** 70, -2 ** 70,
                                   np.int64(3), np.uint64(2 ** 64 - 1)])
    def test_index_past_the_points(self, batch, i):
        with pytest.raises(PointIndexError, match="out of range for 3"):
            batch[i]
        assert issubclass(PointIndexError, IndexError)
        assert issubclass(PointIndexError, HypersplineError)

    def test_iteration_stops_after_the_last_point(self, trig4):
        pts = np.full((3, 4), 1.5)
        batch = Interpolator(trig4[1]).eval_batch(pts)
        assert len(list(batch)) == 3
        with pytest.raises(OutOfDomainError):
            list(Interpolator(trig4[1]).eval_batch(pts - 9.0))
