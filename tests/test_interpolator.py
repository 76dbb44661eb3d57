import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyperspline import (
    Axis,
    BoundaryPolicy,
    ElementRef,
    Interpolator,
    OutOfDomainError,
    RegularGrid,
    TooFewPointsError,
)
from hyperspline import interpolator as interpolator_module
from hyperspline.fields import (
    catmull_rom_1d,
    constant_field,
    linear_field,
    multilinear_field,
    oracle_coefficients,
    sample,
    tensor_polynomial_field,
    trig_product_field,
)
from hyperspline.grid import locate, locate_points

STRICT = BoundaryPolicy.STRICT
GHOST = BoundaryPolicy.LINEAR_GHOST


@pytest.fixture(scope="module")
def trig4():
    field = trig_product_field(4)
    grid = sample(field, [Axis(0.0, 0.5, 7)] * 4)
    return field, grid


class TestConstruction:
    def test_operator_sizes(self):
        grid3 = sample(constant_field(3), [Axis(0, 1, 4)] * 3)
        assert Interpolator(grid3).operator.shape == (64, 64)
        grid4 = sample(constant_field(4), [Axis(0, 1, 4)] * 4)
        assert Interpolator(grid4).operator.shape == (256, 256)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_runtime_path_skips_exact_derivation(self, dim, monkeypatch):
        import hyperspline
        import hyperspline.cli
        import hyperspline.io

        def boom(*args, **kwargs):
            raise AssertionError("exact derivation reached at runtime")

        names = ("constraint_matrix", "difference_matrix", "invert_exact")
        for mod in (hyperspline, hyperspline.operators,
                    hyperspline.interpolator, hyperspline.fields,
                    hyperspline.io, hyperspline.cli):
            for name in names:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, boom)
        grid = sample(trig_product_field(dim), [Axis(0.0, 0.5, 6)] * dim)
        interp = Interpolator(grid)
        p = [1.3] * dim
        interp.eval(p)
        interp.eval_with_gradient(p)
        interp.derivative(p, [1] * dim)
        interp.eval_batch(np.full((3, dim), 1.7))
        interp.precompute_all()

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

    def test_cached_and_read_only(self):
        grid = sample(constant_field(3), [Axis(0, 1, 5)] * 3)
        interp = Interpolator(grid)
        a = interp.coefficients(ElementRef((1, 1, 1)))
        b = interp.coefficients(ElementRef((1, 1, 1)))
        assert a is b
        assert interp.cache_size() == 1
        with pytest.raises(ValueError):
            a[0, 0] = 99.0

    def test_invalid_element_is_programming_error(self):
        grid = sample(constant_field(3), [Axis(0, 1, 5)] * 3)
        interp = Interpolator(grid)
        with pytest.raises(IndexError):
            interp.coefficients(ElementRef((0, 1, 1)))

    def test_install_rejects_element_outside_policy(self):
        grid = sample(constant_field(3), [Axis(0, 1, 5)] * 3)
        interp = Interpolator(grid)
        with pytest.raises(IndexError, match="outside valid range"):
            interp.install_cache_entry((0, 0, 0), np.zeros((1, 64)))
        assert interp.cache_size() == 0
        with pytest.raises(IndexError):
            interp.eval_local(ElementRef((0, 0, 0)), [0.5] * 3)
        interp.install_cache_entry((1, 1, 1), np.zeros((1, 64)))
        assert interp.cache_size() == 1


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
        interp = Interpolator(grid)
        rng = np.random.default_rng(3)
        for _ in range(200):
            idx = tuple(int(rng.integers(1, a.count - 1)) for a in grid.axes)
            p = [grid.axes[d].coordinate(idx[d]) for d in range(4)]
            got = interp.eval(p)[0]
            want = grid.vertex_value(idx)
            assert got == pytest.approx(want, rel=1e-12)


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
        rng = np.random.default_rng(6)
        field = tensor_polynomial_field(dim, 2, rng)
        grid = sample(field, [Axis(-1.0, 0.5, 6)] * dim)
        interp = Interpolator(grid)
        dom = grid.queryable_domain(STRICT)
        for _ in range(200):
            p = np.array([rng.uniform(lo, hi) for lo, hi in dom])
            r = interp.eval_with_gradient(p)
            tv = field.value(p)[0]
            tg = field.gradient(p)[0]
            assert r.values[0] == pytest.approx(tv, rel=1e-10, abs=1e-12)
            assert_allclose(r.gradient[0], tg, rtol=1e-10, atol=1e-10)

    def test_tensor_cubic_not_reproduced(self):
        # centered differences misestimate cubic slopes; the error must
        # be plainly visible, not rounding-level
        rng = np.random.default_rng(7)
        field = tensor_polynomial_field(3, 3, rng)
        grid = sample(field, [Axis(-1.0, 1.0, 6)] * 3)
        interp = Interpolator(grid)
        dom = grid.queryable_domain(STRICT)
        pts = np.stack([rng.uniform(lo, hi, 200) for lo, hi in dom], axis=1)
        errs = [abs(interp.eval(p)[0] - field.value(p)[0]) for p in pts]
        assert max(errs) > 1e-6


class TestContinuity:
    def test_c1_across_faces(self, trig4):
        _, grid = trig4
        interp = Interpolator(grid)
        rng = np.random.default_rng(8)
        ranges = grid.element_base_range(STRICT)
        for _ in range(100):
            d = int(rng.integers(4))
            base = [int(rng.integers(lo, hi)) for lo, hi in ranges]
            left = ElementRef(tuple(base))
            rb = list(base)
            rb[d] += 1
            right = ElementRef(tuple(rb))
            u = rng.uniform(0.0, 1.0, 4)
            ul, ur = u.copy(), u.copy()
            ul[d], ur[d] = 1.0, 0.0
            a = interp.eval_local(left, ul)
            b = interp.eval_local(right, ur)
            assert np.max(np.abs(a.values - b.values)) <= 1e-9
            assert np.max(np.abs(a.gradient - b.gradient)) <= 1e-9

    def test_c2_jump_remains(self, trig4):
        # second partials are NOT continuous across faces, by design of
        # any cubic-spline scheme; this guards against "fixing" it
        _, grid = trig4
        interp = Interpolator(grid)
        eps = 1e-7 * grid.axes[0].spacing
        face_x = grid.axes[0].coordinate(3)
        p = [face_x, 1.3, 1.7, 1.1]
        left = interp.derivative([p[0] - eps] + p[1:], (2, 0, 0, 0))
        right = interp.derivative([p[0] + eps] + p[1:], (2, 0, 0, 0))
        assert abs(left[0] - right[0]) > 1e-9


class TestLineReduction:
    def test_matches_catmull_rom_on_grid_lines(self):
        field = trig_product_field(3)
        grid = sample(field, [Axis(0.0, 0.5, 8)] * 3)
        interp = Interpolator(grid)
        rng = np.random.default_rng(9)
        for _ in range(100):
            j, k = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            i = int(rng.integers(1, 5))
            u = float(rng.uniform(0, 1))
            x = grid.axes[0].coordinate(i) + u * grid.axes[0].spacing
            got = interp.eval(
                [x, grid.axes[1].coordinate(j), grid.axes[2].coordinate(k)])
            f = [grid.vertex_value((i + o, j, k)) for o in (-1, 0, 1, 2)]
            want = catmull_rom_1d(*f, u)
            assert got[0] == pytest.approx(want, abs=1e-12)


class TestTimeSliceConsistency:
    def test_time_constant_4d_matches_3d(self):
        from hyperspline.fields import AnalyticField

        field3 = trig_product_field(3)
        axes3 = tuple(Axis(0.0, 0.5, 6) for _ in range(3))
        grid3 = sample(field3, axes3)
        field4 = AnalyticField(
            4, 1,
            lambda p: field3.value(p[:3]),
            lambda p: np.concatenate([field3.gradient(p[:3]), [[0.0]]],
                                     axis=1),
            "t-independent")
        grid4 = sample(field4, axes3 + (Axis(0.0, 1.0, 5),))
        i3, i4 = Interpolator(grid3), Interpolator(grid4)
        rng = np.random.default_rng(10)
        dom = grid3.queryable_domain(STRICT)
        for _ in range(100):
            p3 = [rng.uniform(lo, hi) for lo, hi in dom]
            t = rng.uniform(1.0, 3.0)
            r3 = i3.eval_with_gradient(p3)
            r4 = i4.eval_with_gradient(p3 + [t])
            assert_allclose(r4.values, r3.values, rtol=1e-12, atol=1e-12)
            assert_allclose(r4.gradient[:, :3], r3.gradient,
                            rtol=1e-12, atol=1e-12)
            assert abs(r4.gradient[0, 3]) < 1e-12


class TestCacheBehavior:
    def test_cold_warm_bit_identical(self, trig4):
        _, grid = trig4
        rng = np.random.default_rng(11)
        dom = grid.queryable_domain(STRICT)
        pts = np.stack([rng.uniform(lo, hi, 50) for lo, hi in dom], axis=1)
        cold = Interpolator(grid)
        cold_out = [cold.eval_with_gradient(p) for p in pts]
        warm = Interpolator(grid)
        warm.precompute_all()
        for p, ref in zip(pts, cold_out):
            r = warm.eval_with_gradient(p)
            assert np.array_equal(r.values, ref.values)
            assert np.array_equal(r.gradient, ref.gradient)

    def test_precompute_fills_every_valid_element(self):
        grid = sample(constant_field(3), [Axis(0, 1, 6)] * 3)
        interp = Interpolator(grid)
        interp.precompute_all()
        assert interp.cache_size() == 3 ** 3

    def test_concurrent_first_touch(self, trig4):
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
            t.join()
        for r in results[1:]:
            assert np.array_equal(r.values, results[0].values)
            assert np.array_equal(r.gradient, results[0].gradient)


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
        assert interp.cache_size() == 0  # evaluation builds no coefficients
        for i in rng.integers(0, 2000, 25):
            r = interp.eval_with_gradient(pts[i])
            assert np.array_equal(res.values[i], r.values)
            assert np.array_equal(res.gradients[i], r.gradient)

    def test_threaded_equals_serial(self, trig4):
        _, grid = trig4
        interp = Interpolator(grid)
        rng = np.random.default_rng(14)
        dom = grid.queryable_domain(STRICT)
        pts = np.stack([rng.uniform(lo, hi, 3000) for lo, hi in dom], axis=1)
        serial = interp.eval_batch(pts, threads=1, chunk_size=128)
        threaded = interp.eval_batch(pts, threads=8, chunk_size=128)
        assert np.array_equal(serial.values, threaded.values)
        assert np.array_equal(serial.gradients, threaded.gradients)

    def test_empty_batch(self, trig4):
        _, grid = trig4
        res = Interpolator(grid).eval_batch(np.empty((0, 4)))
        assert len(res) == 0

    def test_bad_shape(self, trig4):
        _, grid = trig4
        with pytest.raises(ValueError):
            Interpolator(grid).eval_batch(np.zeros((5, 3)))

    @pytest.mark.parametrize("chunk_size", [0, -1, 1.5])
    def test_non_positive_chunk_size(self, trig4, chunk_size):
        _, grid = trig4
        with pytest.raises(ValueError, match="chunk_size"):
            Interpolator(grid).eval_batch(np.full((5, 4), 1.5),
                                          chunk_size=chunk_size)

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
        original = interpolator_module.gather_neighborhoods

        def gather(*args):
            blocks.append(original(*args))
            return blocks[-1]

        n = 2 * int(budget // per_point) + 5
        pts = np.random.default_rng(dim).uniform(1.0, 3.0, (n, dim))
        monkeypatch.setattr(interpolator_module, "gather_neighborhoods",
                            gather)
        res = Interpolator(grid).eval_batch(pts)
        assert res.ok.all() and len(blocks) == 3
        assert blocks[0].nbytes <= budget < blocks[0].nbytes + per_point
        assert sum(b.shape[-1] for b in blocks) == n


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


class TestSharedKernel:
    @pytest.mark.parametrize("policy", [STRICT, GHOST])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("chunk_size", [1, 7, None, 4096])
    def test_batch_equals_scalar_bitwise(self, kernel_case, policy,
                                         threads, chunk_size):
        interp, pts, scalar = kernel_case[policy]
        res = interp.eval_batch(pts, threads=threads, chunk_size=chunk_size)
        assert list(res.ok) == [r is not None for r in scalar]
        if policy is GHOST:
            assert res.ok.all()
        for i, r in enumerate(scalar):
            if r is not None:
                assert np.array_equal(res.values[i], r.values)
                assert np.array_equal(res.gradients[i], r.gradient)

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
        # reference: the element's monomial coefficients, evaluated
        # directly; summation order differs, so rounding-level agreement
        interp, pts, scalar = kernel_case[policy]
        grid = interp.grid
        scale = np.max(np.abs(grid.values))
        exps = np.indices((4,) * interp.dim).reshape(interp.dim, -1)[::-1]
        for p, r in zip(pts, scalar):
            if r is None:
                continue
            elem, u = locate(grid, p, policy)
            coeffs = interp.coefficients(elem)
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
