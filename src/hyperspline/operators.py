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
  integer too (:func:`integer_inverse` finds and certifies it);
* the *difference matrix* F maps the sample neighborhood to the same
  constraint values via tensor-product central differences (exact for
  per-axis degree <= 2); its entries are +-2^-k, exact in float64.

:func:`operator_is_exact` is the one complete check: C has an integer
inverse, and ``C @ operator == F`` holds in integer arithmetic, so the
operator is exactly ``inv(C) @ F``.

Index conventions (shared with grid neighborhoods and coefficient
tensors, so no permutations appear anywhere):
    constraint row   r = corner_mask * 2^dim + quantity_mask
    monomial column  e = sum_d exponent_d * 4^d        (x fastest)
    sample column    n = sum_d (offset_d + 1) * 4^d    (offsets -1..2)
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import UnsupportedDimensionError

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


def difference_matrix(dim: int) -> np.ndarray:
    """Central-difference operator from the sample neighborhood to the
    constraint values, as a dense float64 matrix.

    The row for (corner v, quantity q) tensors together, per axis, either
    the two-point centered slope ``(f[+1] - f[-1]) / 2`` about the corner
    (differentiated axes) or the sample at the corner itself. A row of
    derivative order k has 2^k nonzeros of magnitude 2^-k, exact in
    float64.
    """
    _check_dim(dim)
    size = 4 ** dim
    out = np.zeros((size, size))
    for v in range(1 << dim):
        pbits = [(v >> d) & 1 for d in range(dim)]
        for q in range(1 << dim):
            row = v * (1 << dim) + q
            per_axis = []
            for d in range(dim):
                if (q >> d) & 1:
                    per_axis.append(
                        [(pbits[d] - 1, -0.5), (pbits[d] + 1, 0.5)])
                else:
                    per_axis.append([(pbits[d], 1.0)])
            for combo in itertools.product(*per_axis):
                col = sum((off + 1) * 4 ** d for d, (off, _) in enumerate(combo))
                out[row, col] = math.prod(w for _, w in combo)
    return out


def integer_inverse(matrix: np.ndarray):
    """The inverse of an integer matrix as int64, or None if it has none.

    The float inverse, rounded, is returned only if ``matrix @ inverse``
    is exactly the identity in int64, which certifies it. A singular
    matrix, or one whose inverse is not integer valued, gives None.
    """
    try:
        inv = np.rint(np.linalg.inv(matrix)).astype(np.int64)
    except np.linalg.LinAlgError:
        return None
    identity = np.eye(len(inv), dtype=np.int64)
    return inv if np.array_equal(matrix @ inv, identity) else None


def operator_is_exact(dim: int) -> bool:
    """Whether ``operator_set(dim)`` is exactly ``inv(C) @ F``, with C the
    :func:`constraint_matrix` and F the :func:`difference_matrix`.

    C must have an integer inverse (:func:`integer_inverse`); then
    ``C @ operator == F`` pins the operator down. Both sides are scaled
    by 2^dim, which makes every entry of a correct operator an integer,
    and compared in int64 arithmetic. A scaled operator entry that is
    not an integer fails the check.
    """
    constraint = constraint_matrix(dim)
    if integer_inverse(constraint) is None:
        return False
    scale = 1 << dim
    op = scale * operator_set(dim)
    op_int = op.astype(np.int64)
    diff = scale * difference_matrix(dim)
    return (np.array_equal(op, op_int)
            and np.array_equal(constraint @ op_int, diff))
