"""The per-dimension interpolation operator and the exact derivation
that verifies it.

For dimension N (3 or 4) the cubic on each unit element has 4^N
coefficients, pinned by 2^N constraint quantities (the value and every
mixed first partial, each axis differentiated at most once) imposed at
each of the 2^N element corners. Restricted to one axis this is the
uniform Catmull-Rom cubic, so the operator taking an element's raw
4-wide sample neighborhood to its polynomial coefficients is the N-th
Kronecker power of the 4x4 Catmull-Rom basis matrix ``CATMULL_ROM``.
Its entries are dyadic rationals with small numerators, so the float64
matrix holds them exactly. Both powers are built at import and shared
read-only; :func:`operator_set` returns them.

The paper derives the same operator from two matrices, kept here as
the reference that verifies it:

* the *constraint matrix* C maps polynomial coefficients to the stacked
  constraint values; its entries are small integers and its inverse is
  integer too (:func:`invert_exact` checks this exactly);
* the *difference matrix* F maps the sample neighborhood to the same
  constraint values via tensor-product central differences (exact for
  per-axis degree <= 2).

:func:`operator_is_exact` checks ``C @ operator == F`` in integer
arithmetic; as C is invertible, the operator is exactly ``inv(C) @ F``.

Index conventions (shared with grid neighborhoods and coefficient
tensors, so no permutations appear anywhere):
    constraint row   r = corner_mask * 2^dim + quantity_mask
    monomial column  e = sum_d exponent_d * 4^d        (x fastest)
    sample column    n = sum_d (offset_d + 1) * 4^d    (offsets -1..2)
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonIntegerInverseWarning,
    SingularMatrixError,
    UnsupportedDimensionError,
)

SUPPORTED_DIMS = (3, 4)

# Row k holds the coefficient of u^k of the cubic through samples at
# offsets -1, 0, 1, 2 (columns) with centered-difference end slopes.
CATMULL_ROM = np.array([[0.0, 1.0, 0.0, 0.0],
                        [-0.5, 0.0, 0.5, 0.0],
                        [1.0, -2.5, 2.0, -0.5],
                        [-0.5, 1.5, -1.5, 0.5]])
CATMULL_ROM.flags.writeable = False


def _check_dim(dim: int):
    if dim not in SUPPORTED_DIMS:
        raise UnsupportedDimensionError(
            f"dimension must be one of {SUPPORTED_DIMS}, got {dim}")


def _kron_power(dim: int) -> np.ndarray:
    # adding +0.0 turns the -0.0 products of kron into +0.0, so the
    # matrix matches the exact product inv(C) @ F bit for bit
    op = functools.reduce(np.kron, [CATMULL_ROM] * dim) + 0.0
    op.flags.writeable = False
    return op


_OPERATORS = {dim: _kron_power(dim) for dim in SUPPORTED_DIMS}


def operator_set(dim: int) -> np.ndarray:
    """The read-only ``(4^dim, 4^dim)`` samples-to-coefficients operator.

    Row e (monomial column convention) times an element's flattened
    sample neighborhood gives its coefficient of monomial e.
    """
    _check_dim(dim)
    return _OPERATORS[dim]


@dataclass(frozen=True)
class Quantity:
    """One constraint quantity: a mixed partial with axes given by a bitmask.

    Bit d of ``mask`` set means one derivative along axis d; mask 0 is
    the plain field value, the all-ones mask the full mixed partial.
    """

    mask: int
    dim: int

    @property
    def order(self) -> int:
        return bin(self.mask).count("1")

    @property
    def axes(self) -> tuple:
        return tuple(d for d in range(self.dim) if (self.mask >> d) & 1)

    def label(self, axis_names="xyzt") -> str:
        if self.mask == 0:
            return "f"
        num = "d" if self.order == 1 else f"d{self.order}"
        return f"{num}f/" + "".join("d" + axis_names[d] for d in self.axes)


def constraint_quantities(dim: int):
    """The 2^dim constraint quantities in canonical ascending-mask order."""
    _check_dim(dim)
    return [Quantity(mask, dim) for mask in range(1 << dim)]


def monomial_exponents(dim: int) -> np.ndarray:
    """Per-axis exponents of column e: ``exps[e, d] = (e // 4**d) % 4``."""
    e = np.arange(4 ** dim)
    return np.stack([(e // 4 ** d) % 4 for d in range(dim)], axis=1)


def neighborhood_offsets(dim: int) -> np.ndarray:
    """Per-axis offsets of sample column n: values in {-1, 0, 1, 2}."""
    n = np.arange(4 ** dim)
    return np.stack([(n // 4 ** d) % 4 - 1 for d in range(dim)], axis=1)


def constraint_matrix(dim: int) -> np.ndarray:
    """Integer matrix taking unit-cell polynomial coefficients to the
    constraint values at the element corners.

    Entry ``[(corner v, quantity q), exponent e]`` is the product over
    axes of ``n * p**(n-1)`` (differentiated axis, with ``0 * p**-1 == 0``)
    or ``p**n`` (plain axis), at corner coordinate ``p = bit d of v`` and
    exponent ``n = e_d``.
    """
    _check_dim(dim)
    size = 4 ** dim
    exps = monomial_exponents(dim)
    out = np.zeros((size, size), dtype=np.int64)
    for v in range(1 << dim):
        pbits = [(v >> d) & 1 for d in range(dim)]
        for q in range(1 << dim):
            row = v * (1 << dim) + q
            for col in range(size):
                val = 1
                for d in range(dim):
                    n = int(exps[col, d])
                    p = pbits[d]
                    if (q >> d) & 1:
                        if n == 0:
                            f = 0
                        elif p == 1:
                            f = n
                        else:  # p == 0: derivative of x^n at 0
                            f = 1 if n == 1 else 0
                    else:
                        f = 1 if p == 1 or n == 0 else 0
                    if f == 0:
                        val = 0
                        break
                    val *= f
                out[row, col] = val
    return out


@dataclass(frozen=True)
class SparseRational:
    """Exact sparse matrix: ``entries[(row, col)]`` is a Fraction."""

    shape: tuple
    entries: dict

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for (r, c), v in self.entries.items():
            out[r, c] = float(v)
        return out


def difference_matrix(dim: int) -> SparseRational:
    """Central-difference operator from the sample neighborhood to the
    constraint values.

    The row for (corner v, quantity q) tensors together, per axis, either
    the two-point centered slope ``(f[+1] - f[-1]) / 2`` about the corner
    (differentiated axes) or the sample at the corner itself. A row of
    derivative order k has 2^k nonzeros of magnitude 2^-k.
    """
    _check_dim(dim)
    size = 4 ** dim
    entries = {}
    half = Fraction(1, 2)
    for v in range(1 << dim):
        pbits = [(v >> d) & 1 for d in range(dim)]
        for q in range(1 << dim):
            row = v * (1 << dim) + q
            per_axis = []
            for d in range(dim):
                if (q >> d) & 1:
                    per_axis.append(
                        [(pbits[d] - 1, -half), (pbits[d] + 1, half)])
                else:
                    per_axis.append([(pbits[d], Fraction(1))])
            for combo in itertools.product(*per_axis):
                col = sum((off + 1) * 4 ** d for d, (off, _) in enumerate(combo))
                w = Fraction(1)
                for _, wd in combo:
                    w *= wd
                entries[(row, col)] = entries.get((row, col), Fraction(0)) + w
    return SparseRational((size, size), entries)


def invert_exact(matrix: np.ndarray) -> np.ndarray:
    """Exact inverse of an integer matrix by rational Gauss-Jordan.

    Verifies ``matrix @ inverse == I`` exactly before returning. The
    result is an int64 array when (as for the constraint matrices) every
    inverse entry is an integer; otherwise a warning is issued and an
    object array of Fractions is returned.

    Raises
    ------
    SingularMatrixError
        If elimination runs out of pivots.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise DimensionMismatchError(f"matrix must be square, got {matrix.shape}")
    left = [[Fraction(int(x)) for x in row] for row in matrix]
    right = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        right[i][i] = Fraction(1)
    for col in range(n):
        # any nonzero pivot works; a +-1 pivot avoids fraction churn
        piv = -1
        for r in range(col, n):
            if left[r][col] != 0:
                piv = r
                if abs(left[r][col]) == 1:
                    break
        if piv < 0:
            raise SingularMatrixError(f"no pivot available in column {col}")
        if piv != col:
            left[col], left[piv] = left[piv], left[col]
            right[col], right[piv] = right[piv], right[col]
        pv = left[col][col]
        if pv != 1:
            inv = 1 / pv
            left[col] = [x * inv if x else x for x in left[col]]
            right[col] = [x * inv if x else x for x in right[col]]
        lcol, rcol = left[col], right[col]
        for r in range(n):
            if r == col:
                continue
            f = left[r][col]
            if f == 0:
                continue
            left[r] = [a - f * b if b else a for a, b in zip(left[r], lcol)]
            right[r] = [a - f * b if b else a for a, b in zip(right[r], rcol)]

    if all(x.denominator == 1 for row in right for x in row):
        inv_arr = np.array([[int(x) for x in row] for row in right],
                           dtype=np.int64)
        prod = matrix.astype(np.int64) @ inv_arr
        if not np.array_equal(prod, np.eye(n, dtype=np.int64)):
            raise SingularMatrixError(
                "exact inverse failed verification (construction bug)")
        return inv_arr

    warnings.warn(
        "constraint-matrix inverse is not integer valued; keeping exact "
        "rationals", NonIntegerInverseWarning, stacklevel=2)
    inv_arr = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            inv_arr[i, j] = right[i][j]
    for i in range(n):
        for j in range(n):
            acc = Fraction(0)
            for k in range(n):
                if matrix[i, k]:
                    acc += int(matrix[i, k]) * right[k][j]
            if acc != (1 if i == j else 0):
                raise SingularMatrixError(
                    "exact inverse failed verification (construction bug)")
    return inv_arr


def operator_is_exact(dim: int) -> bool:
    """Whether ``constraint_matrix(dim) @ operator_set(dim)`` equals
    ``difference_matrix(dim)`` exactly.

    Both sides are scaled by 2^dim, which makes every entry of a correct
    operator an integer, and compared in int64 arithmetic. A scaled
    operator entry that is not an integer fails the check.
    """
    scale = 1 << dim
    op = scale * operator_set(dim)
    op_int = op.astype(np.int64)
    diff = scale * difference_matrix(dim).to_dense()
    return (np.array_equal(op, op_int)
            and np.array_equal(constraint_matrix(dim) @ op_int, diff))
