import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyperspline import (Axis, BoundaryPolicy, ElementRef, HypersplineError,
                         Interpolator, RegularGrid)
from hyperspline import interpolator
from hyperspline.fields import (
    AnalyticField,
    catmull_rom_1d,
    check_c1_continuity,
    check_c2_jump,
    check_fused_oracle,
    constant_field,
    continuity_scan,
    convergence_study,
    linear_field,
    multilinear_field,
    oracle_coefficients,
    quadrupole_field,
    sample,
    tensor_polynomial_field,
    trig_product_field,
)

STRICT = BoundaryPolicy.STRICT


class TestAnalyticField:
    def test_rejects_inconsistent_gradient(self):
        with pytest.raises(ValueError):
            AnalyticField(
                3, 1,
                lambda p: np.array([p[0] ** 2]),
                lambda p: np.array([[1.0, 0.0, 0.0]]),  # wrong: should be 2x
                "broken pair", check_box=((1.0, 2.0),))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            AnalyticField(
                3, 1,
                lambda p: np.array([1.0, 2.0]),  # two components declared one
                lambda p: np.zeros((1, 3)),
                "bad shape")

    def test_quadrupole_shape(self):
        q = quadrupole_field()
        assert q.dim == 4 and q.components == 3
        p = np.array([0.3, -0.2, 0.5, 1.0])
        assert q.value(p).shape == (3,)
        assert q.gradient(p).shape == (3, 4)


class TestSample:
    def test_constant(self):
        grid = sample(constant_field(4, 2.5), [Axis(0, 1, 4)] * 4)
        assert np.all(grid.values == 2.5)

    def test_index_field(self):
        grid = sample(linear_field(3, [1, 0, 0]), [Axis(0, 1, 5)] * 3)
        for i in range(5):
            assert grid.vertex_value((i, 2, 3)) == float(i)

    def test_trig_matches_direct_evaluation(self):
        field = trig_product_field(3)
        axes = [Axis(0.0, 0.7, 4), Axis(1.0, 0.3, 5), Axis(-1.0, 0.5, 6)]
        grid = sample(field, axes)
        rng = np.random.default_rng(0)
        for _ in range(20):
            idx = [int(rng.integers(0, a.count)) for a in axes]
            p = np.array([axes[d].coordinate(idx[d]) for d in range(3)])
            assert grid.vertex_value(idx) == field.value(p)[0]

    def test_dim_mismatch(self):
        with pytest.raises(HypersplineError):
            sample(constant_field(3), [Axis(0, 1, 4)] * 4)


class TestOracle:
    @pytest.mark.parametrize("dim", [3, 4])
    def test_constant_coefficients(self, dim):
        grid = sample(constant_field(dim, 3.25), [Axis(0, 1, 5)] * dim)
        alpha = oracle_coefficients(grid, ElementRef((1,) * dim))
        assert alpha[0, 0] == pytest.approx(3.25, rel=1e-13)
        assert np.max(np.abs(alpha[0, 1:])) < 1e-11

    @pytest.mark.parametrize("dim", [3, 4])
    def test_agrees_with_fused_path_on_random_elements(self, dim):
        rng = np.random.default_rng(1)
        field = tensor_polynomial_field(dim, 3, rng)
        grid = sample(field, [Axis(-1.0, 0.4, 7)] * dim)
        interp = Interpolator(grid)
        ranges = grid.element_base_range(STRICT)
        worst = 0.0
        for _ in range(25):
            base = tuple(int(rng.integers(lo, hi + 1)) for lo, hi in ranges)
            diff = np.abs(oracle_coefficients(grid, ElementRef(base))
                          - interp.coefficients(ElementRef(base)))
            worst = max(worst, float(diff.max()))
        assert worst < 1e-10

    def test_vector_components(self):
        grid = sample(quadrupole_field(), [Axis(-1.0, 0.5, 5)] * 4)
        alpha = oracle_coefficients(grid, ElementRef((1, 1, 1, 1)))
        assert alpha.shape == (3, 256)
        interp = Interpolator(grid)
        got = interp.coefficients(ElementRef((1, 1, 1, 1)))
        assert np.max(np.abs(alpha - got)) < 1e-10


class TestFusedOracleCheck:
    @pytest.mark.parametrize("spacing", [0.5, 1e-9, 1e6])
    @pytest.mark.parametrize("scale", [1.0, 1e8])
    def test_bound_scales_with_the_samples(self, scale, spacing,
                                           monkeypatch):
        # the same samples at any spacing: partials are compared per
        # unit cell, so neither the samples' magnitude nor the spacing
        # moves the scaled difference off rounding level
        values = sample(trig_product_field(3), [Axis(0.0, 0.5, 9)] * 3).values
        grid = RegularGrid([Axis(0.0, spacing, 9)] * 3, values * scale)
        interp = Interpolator(grid)
        assert check_fused_oracle(interp, 10, 0)[0]
        monkeypatch.setattr(interpolator, "_HORNER",
                            interpolator._HORNER * (1 + 1e-8))
        assert not check_fused_oracle(interp, 10, 0)[0]


class TestTypedErrors:
    # sample and continuity_scan are covered in their own classes
    @pytest.mark.parametrize("check", [check_c1_continuity, check_c2_jump])
    def test_checks_need_adjacent_elements(self, check):
        # a 4^3 grid holds one strict element, so no face between two
        grid = sample(constant_field(3), [Axis(0, 1, 4)] * 3)
        with pytest.raises(HypersplineError, match="adjacent"):
            check(Interpolator(grid), 10, 0)

    @pytest.mark.parametrize("lo,hi", [([0.0] * 2, [3.0] * 3),
                                       ([0.0] * 3, [3.0] * 4)])
    def test_convergence_range_length(self, lo, hi):
        with pytest.raises(HypersplineError):
            convergence_study(trig_product_field(3), lo, hi)


class TestContinuityScan:
    def test_linear_field_jumps_at_rounding_level(self):
        grid = sample(linear_field(3), [Axis(0, 1, 6)] * 3)
        rep = continuity_scan(Interpolator(grid), 200, seed=0)
        assert rep.max_value_jump <= 1e-12
        assert rep.max_gradient_jump <= 1e-12

    @pytest.mark.parametrize("dim", [3, 4])
    def test_smooth_field_jumps_below_c1_tolerance(self, dim):
        grid = sample(trig_product_field(dim), [Axis(0.0, 0.5, 7)] * dim)
        rep = continuity_scan(Interpolator(grid), 300, seed=1)
        assert rep.max_value_jump <= 1e-9
        assert rep.max_gradient_jump <= 1e-9

    def test_vector_field(self):
        grid = sample(quadrupole_field(), [Axis(-1.5, 0.5, 7)] * 4)
        rep = continuity_scan(Interpolator(grid), 200, seed=2)
        assert rep.max_value_jump <= 1e-9
        assert rep.max_gradient_jump <= 1e-9

    def test_needs_adjacent_elements(self):
        grid = sample(constant_field(3), [Axis(0, 1, 4)] * 3)
        with pytest.raises(HypersplineError, match="adjacent"):
            continuity_scan(Interpolator(grid), 10)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_entire_builtin_roster(self, dim):
        rng = np.random.default_rng(4)
        roster = [constant_field(dim), linear_field(dim),
                  multilinear_field(dim), tensor_polynomial_field(dim, 2, rng),
                  tensor_polynomial_field(dim, 3, rng), trig_product_field(dim)]
        if dim == 4:
            roster.append(quadrupole_field())
        for afield in roster:
            box = afield.check_box * dim if len(afield.check_box) == 1 \
                else afield.check_box
            axes = [Axis(box[d][0], (box[d][1] - box[d][0]) / 5, 6)
                    for d in range(dim)]
            rep = continuity_scan(Interpolator(sample(afield, axes)),
                                  100, seed=5)
            assert rep.max_value_jump <= 1e-9, afield.descriptor
            assert rep.max_gradient_jump <= 1e-9, afield.descriptor


class TestConvergence:
    def test_quadratic_field_error_is_rounding(self):
        rng = np.random.default_rng(3)
        field = tensor_polynomial_field(3, 2, rng)
        rep = convergence_study(field, lo=np.full(3, -1.0),
                                hi=np.full(3, 1.0), base_count=7,
                                n_levels=3, n_probes=20, seed=3)
        assert max(rep.max_errors) < 1e-11

    def test_trig_field_order_and_monotonicity(self):
        rep = convergence_study(trig_product_field(3), lo=np.zeros(3),
                                hi=np.full(3, 3.0), base_count=9,
                                n_levels=4, n_probes=40, seed=4)
        assert rep.fitted_order >= 2.7
        assert rep.strictly_decreasing

    def test_report_fields(self):
        rep = convergence_study(trig_product_field(3), lo=np.zeros(3),
                                hi=np.full(3, 3.0), base_count=9,
                                n_levels=2, n_probes=10, seed=5)
        assert len(rep.spacings) == 2
        assert rep.spacings[1] == pytest.approx(rep.spacings[0] / 2)


class TestCatmullRom:
    def test_endpoint_interpolation(self):
        assert catmull_rom_1d(0.0, 1.0, 2.0, 5.0, 0.0) == 1.0
        assert catmull_rom_1d(0.0, 1.0, 2.0, 5.0, 1.0) == 2.0

    def test_exact_on_quadratics(self):
        def f(x):
            return 2.0 - x + 0.5 * x * x

        for u in np.linspace(0, 1, 11):
            got = catmull_rom_1d(f(-1), f(0), f(1), f(2), float(u))
            assert got == pytest.approx(f(float(u)), rel=1e-14, abs=1e-14)

    def test_slope_from_central_difference(self):
        # derivative at u=0 equals (f1 - f_m1)/2 by construction
        f = [0.3, 1.1, 2.9, 4.0]
        h = 1e-7
        slope = (catmull_rom_1d(*f, h) - catmull_rom_1d(*f, 0.0)) / h
        assert slope == pytest.approx((f[2] - f[0]) / 2, rel=1e-6)


class TestMultilinearField:
    def test_value_and_gradient(self):
        f = multilinear_field(4)
        p = np.array([2.0, 3.0, 0.5, 4.0])
        assert f.value(p)[0] == 12.0
        assert_allclose(f.gradient(p)[0], [6.0, 4.0, 24.0, 3.0])
