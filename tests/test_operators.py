import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hyperspline.operators as ops_mod
from hyperspline import Axis, Interpolator, UnsupportedDimensionError
from hyperspline.cli import main
from hyperspline.operators import (
    constraint_matrix,
    difference_matrix,
    integer_inverse,
    operator_is_exact,
    operator_set,
)


def monomial_exponents(dim: int) -> np.ndarray:
    """Per-axis exponents of column e: ``exps[e, d] = (e // 4**d) % 4``."""
    e = np.arange(4 ** dim)
    return np.stack([(e // 4 ** d) % 4 for d in range(dim)], axis=1)


def neighborhood_offsets(dim: int) -> np.ndarray:
    """Per-axis offsets of sample column n: values in {-1, 0, 1, 2}."""
    n = np.arange(4 ** dim)
    return np.stack([(n // 4 ** d) % 4 - 1 for d in range(dim)], axis=1)


def naive_rational_inverse(mat):
    """Plain Fraction Gauss-Jordan, no pivot heuristics: the oracle."""
    n = mat.shape[0]
    aug = [[Fraction(int(mat[i, j])) for j in range(n)]
           + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [[aug[i][n + j] for j in range(n)] for i in range(n)]


class TestConstraintMatrix:
    def test_unsupported_dim(self):
        with pytest.raises(UnsupportedDimensionError):
            constraint_matrix(5)
        with pytest.raises(UnsupportedDimensionError):
            difference_matrix(1)

    @pytest.mark.parametrize("dim,size", [(3, 64), (4, 256)])
    def test_shape_and_integrality(self, dim, size):
        c = constraint_matrix(dim)
        assert c.shape == (size, size)
        assert c.dtype == np.int64
        assert np.abs(c).max() <= 81

    def test_origin_rows(self):
        c = constraint_matrix(4)
        # corner 0, quantity f: only the constant monomial survives
        row = c[0]
        assert row[0] == 1 and np.count_nonzero(row) == 1
        # corner 0, d/dx: only monomial (1,0,0,0), column 1
        row = c[1]
        assert row[1] == 1 and np.count_nonzero(row) == 1

    def test_far_corner_value_row(self):
        c = constraint_matrix(4)
        v = 0b1111
        row = c[v * 16 + 0]
        assert np.all(row == 1)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_against_direct_monomial_derivatives(self, dim):
        # independent evaluation of each row from the monomial definition
        c = constraint_matrix(dim)
        exps = monomial_exponents(dim)
        corners = range(1 << dim)
        for v, q in itertools.product(corners, corners):
            p = [(v >> d) & 1 for d in range(dim)]
            for col in range(4 ** dim):
                val = 1.0
                for d in range(dim):
                    n = int(exps[col, d])
                    if (q >> d) & 1:
                        val *= 0.0 if n == 0 else n * float(p[d]) ** (n - 1)
                    else:
                        val *= float(p[d]) ** n if n else 1.0
                assert c[v * (1 << dim) + q, col] == val


class TestExactInverse:
    def test_dim3_matches_naive_oracle(self):
        c = constraint_matrix(3)
        inv = integer_inverse(c)
        assert inv.dtype == np.int64
        oracle = naive_rational_inverse(c)
        for i in range(64):
            for j in range(64):
                assert oracle[i][j] == int(inv[i, j])

    @pytest.mark.parametrize("dim", [3, 4])
    def test_product_is_identity_exactly(self, dim):
        c = constraint_matrix(dim)
        inv = integer_inverse(c)
        n = c.shape[0]
        assert np.array_equal(c @ inv, np.eye(n, dtype=np.int64))
        assert np.array_equal(inv @ c, np.eye(n, dtype=np.int64))

    def test_trilinear_product_field_coefficients(self):
        # constraints of f = xyz at the cell corners are hand-computable:
        # each quantity drops its differentiated axes from the product
        inv = integer_inverse(constraint_matrix(3))
        b = np.zeros(64)
        for v in range(8):
            bits = [(v >> d) & 1 for d in range(3)]
            for q in range(8):
                val = 1
                for d in range(3):
                    if not (q >> d) & 1:
                        val *= bits[d]
                b[v * 8 + q] = val
        alpha = inv @ b
        idx_xyz = 1 + 4 + 16  # monomial (1,1,1)
        assert alpha[idx_xyz] == 1.0
        alpha[idx_xyz] = 0.0
        assert np.all(alpha == 0.0)

    def test_singular_matrix_has_none(self):
        bad = np.zeros((4, 4), dtype=np.int64)
        bad[0, 0] = 1
        assert integer_inverse(bad) is None

    def test_non_integer_inverse_is_none(self):
        assert integer_inverse(np.array([[2, 0], [0, 1]])) is None


def _singular_but_consistent(monkeypatch):
    """Patch in a constraint system whose row 5 repeats row 6 in both C
    and F: the runtime operator still solves ``C @ op == F``, but C is
    singular, so that equation no longer pins the operator down."""
    def with_row5_as_row6(build):
        def patched(dim):
            mat = build(dim).copy()
            mat[5] = mat[6]
            return mat
        return patched

    for name in ("constraint_matrix", "difference_matrix"):
        monkeypatch.setattr(ops_mod, name,
                            with_row5_as_row6(getattr(ops_mod, name)))


class TestSingularConstraintSystem:
    def test_operator_check_fails(self, monkeypatch):
        _singular_but_consistent(monkeypatch)
        c = ops_mod.constraint_matrix(3)
        op = (8 * operator_set(3)).astype(np.int64)
        assert np.array_equal(c @ op, 8 * ops_mod.difference_matrix(3))
        assert not operator_is_exact(3)

    def test_validate_reports_failure(self, monkeypatch, capsys):
        _singular_but_consistent(monkeypatch)
        assert main(["validate", "--seed", "7"]) == 1
        out = capsys.readouterr().out
        assert "FAIL operators_exact_dim3" in out
        assert "FAIL operators_exact_dim4" in out
        # the oracle solves the patched system, whatever the import order
        assert "FAIL fused_oracle_dim3 constraint_system=singular" in out

    def test_patch_leaves_no_cached_system(self, monkeypatch):
        from hyperspline import fields

        grid = fields.sample(fields.trig_product_field(3),
                             [Axis(0.0, 0.5, 6)] * 3)
        interp = Interpolator(grid)
        _singular_but_consistent(monkeypatch)
        assert fields.check_fused_oracle(interp, 2, 0) == (
            False, {"constraint_system": "singular"})
        monkeypatch.undo()
        assert fields.check_fused_oracle(interp, 2, 0)[0]
        assert integer_inverse(constraint_matrix(3)) is not None


class TestDifferenceMatrix:
    def test_first_derivative_row(self):
        d = difference_matrix(4)
        # corner 0, d/dx: +1/2 at offset (1,0,0,0), -1/2 at (-1,0,0,0)
        row = d[0 * 16 + 1]
        col_plus = (1 + 1) + 4 + 16 + 64
        col_minus = (-1 + 1) + 4 + 16 + 64
        want = np.zeros(256)
        want[col_plus], want[col_minus] = 0.5, -0.5
        assert np.array_equal(row, want)

    def test_mixed_second_derivative_row(self):
        d = difference_matrix(4)
        # corner (1,1,0,0), d2/dxdy
        v = 0b0011
        row = d[v * 16 + 0b0011]

        def col(ox, oy):
            return (ox + 1) + 4 * (oy + 1) + 16 * 1 + 64 * 1

        want = np.zeros(256)
        want[[col(2, 2), col(0, 0)]] = 0.25
        want[[col(2, 0), col(0, 2)]] = -0.25
        assert np.array_equal(row, want)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_row_structure(self, dim):
        d = difference_matrix(dim)
        assert d.dtype == np.float64
        # the per-axis products leave no -0.0 where an entry is zero
        assert not np.any(np.signbit(d[d == 0]))
        for v in range(1 << dim):
            for q in range(1 << dim):
                order = bin(q).count("1")
                row = d[v * (1 << dim) + q]
                nonzero = row[row != 0]
                assert nonzero.size == 2 ** order
                assert np.all(np.abs(nonzero) == 2.0 ** -order)
                assert row.sum() == (1 if q == 0 else 0)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_against_direct_centred_differences(self, dim):
        # independent evaluation of each entry from the centred-difference
        # definition: per axis, the sample at the corner (value) or half
        # the difference of its two neighbours (slope); pins the row order
        d = difference_matrix(dim)
        offs = neighborhood_offsets(dim)
        corners = range(1 << dim)
        for v, q in itertools.product(corners, corners):
            p = [(v >> k) & 1 for k in range(dim)]
            for col in range(4 ** dim):
                val = 1.0
                for k in range(dim):
                    o = int(offs[col, k])
                    if (q >> k) & 1:
                        val *= 0.5 * (o == p[k] + 1) - 0.5 * (o == p[k] - 1)
                    else:
                        val *= float(o == p[k])
                assert d[v * (1 << dim) + q, col] == val

    def test_exact_on_quadratic(self):
        # f(x) = x^2 about global x = 2: slope estimate (9 - 1)/2 = 4
        d = difference_matrix(4)
        offs = neighborhood_offsets(4)
        x = np.array([float(2 + o[0]) ** 2 for o in offs])
        b = d @ x
        assert b[0 * 16 + 1] == 4.0

    @pytest.mark.parametrize("dim", [3, 4])
    def test_exact_derivatives_for_tensor_quadratics(self, dim):
        # integer-coefficient per-axis-degree-2 polynomial: all constraint
        # values must come out exactly
        rng = np.random.default_rng(5)
        coeffs = rng.integers(-3, 4, size=(3,) * dim)

        def value(p):
            acc = coeffs.astype(float)
            for d in range(dim - 1, -1, -1):
                acc = acc @ (float(p[d]) ** np.arange(3))
            return float(acc)

        def partial(p, mask):
            acc = coeffs.astype(float)
            for d in range(dim - 1, -1, -1):
                pw = np.arange(3)
                if (mask >> d) & 1:
                    vec = pw * float(p[d]) ** np.maximum(pw - 1, 0)
                else:
                    vec = float(p[d]) ** pw
                acc = acc @ vec
            return float(acc)

        d = difference_matrix(dim)
        offs = neighborhood_offsets(dim)
        x = np.array([value(o) for o in offs])
        b = d @ x
        for v in range(1 << dim):
            corner = [(v >> k) & 1 for k in range(dim)]
            for q in range(1 << dim):
                assert b[v * (1 << dim) + q] == partial(corner, q)


class TestFusedMatrix:
    @pytest.mark.parametrize("dim", [3, 4])
    def test_exact_integer_identity(self, dim):
        # C @ (2^d K) == 2^d F in int64, with C invertible (see
        # TestExactInverse): K is exactly inv(C) @ F
        scale = 2 ** dim
        k_int = (scale * operator_set(dim)).astype(np.int64)
        assert np.array_equal(k_int, scale * operator_set(dim))
        f_int = (scale * difference_matrix(dim)).astype(np.int64)
        assert np.array_equal(f_int, scale * difference_matrix(dim))
        assert np.array_equal(constraint_matrix(dim) @ k_int, f_int)
        assert operator_is_exact(dim)
        # the float matrix also has no -0.0, so it equals the rounded
        # exact product bit for bit, not only in value
        assert not np.any(np.signbit(operator_set(dim)[k_int == 0]))

    @pytest.mark.parametrize("delta", [2.0 ** -3, 2.0 ** -60])
    def test_exactness_check_detects_a_perturbed_entry(self, delta,
                                                       monkeypatch):
        bad = operator_set(3).copy()
        bad[5, 21] += delta
        monkeypatch.setattr(ops_mod, "operator_set", lambda dim: bad)
        assert not operator_is_exact(3)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_constant_reproduction(self, dim):
        alpha = operator_set(dim) @ np.ones(4 ** dim)
        assert alpha[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(alpha[1:])) < 1e-14

    def test_linear_reproduction(self):
        offs = neighborhood_offsets(4)
        x = np.array([2.0 + o[0] for o in offs])  # f = x, base at x-index 2
        alpha = operator_set(4) @ x
        assert alpha[0] == pytest.approx(2.0, abs=1e-13)
        assert alpha[1] == pytest.approx(1.0, abs=1e-13)
        mask = np.ones(256, dtype=bool)
        mask[[0, 1]] = False
        assert np.max(np.abs(alpha[mask])) < 1e-13

    @pytest.mark.parametrize("dim", [3, 4])
    def test_matches_dense_solve_oracle(self, dim):
        cf = constraint_matrix(dim).astype(np.float64)
        df = difference_matrix(dim)
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(4 ** dim)
            direct = operator_set(dim) @ x
            ref = np.linalg.solve(cf, df @ x)
            worst = max(worst, float(np.max(np.abs(direct - ref))))
        assert worst < 1e-10


class TestOperatorSet:
    def test_sizes(self):
        assert operator_set(3).shape == (64, 64)
        assert operator_set(4).shape == (256, 256)

    def test_memoized(self):
        assert operator_set(3) is operator_set(3)
        assert operator_set(4) is operator_set(4)

    @pytest.mark.parametrize("dim", [2, 5, 3.0, 3.5, "3", [3], None])
    def test_unsupported_dimension(self, dim):
        with pytest.raises(UnsupportedDimensionError):
            operator_set(dim)

    def test_import_builds_no_operator(self):
        src = Path(ops_mod.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c",
             "import hyperspline; from hyperspline import operators; "
             "print(operators._kron_power.cache_info().currsize)"],
            capture_output=True, text=True, env=env, check=True).stdout
        assert out.strip() == "0"

    def test_matrices_write_protected(self):
        with pytest.raises(ValueError):
            operator_set(3)[0, 0] = 1.0
        with pytest.raises(ValueError):
            ops_mod.CATMULL_ROM[0, 0] = 1.0
