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
matrix holds them exactly. :func:`operator_set` builds each power on
first use and shares it read-only; evaluation never asks for it.

The paper derives the same operator from two matrices, kept here as
the reference that verifies it. Per axis, a constraint is the value or
the slope at u = 0 or u = 1, so each is the N-th Kronecker power of one
4x4 table per axis (row ``2 * p + s``: value, s = 0, or slope, s = 1,
at corner u = p), its rows put in corner order:

* the *constraint matrix* C, from ``CONSTRAINT_TABLE`` (column n: the
  monomial u^n), maps polynomial coefficients to the stacked
  constraint values; its entries are small integers and its inverse is
  integer too (:func:`integer_inverse` finds and certifies it);
* the *difference matrix* F, from ``DIFFERENCE_TABLE`` (column j: the
  sample at offset j - 1, or the centred slope ``(f[+1] - f[-1]) / 2``
  about the corner), maps the sample neighborhood to the same
  constraint values (exact for per-axis degree <= 2); its entries are
  +-2^-k, exact in float64.

:func:`operator_is_exact` is the one complete check: C has an integer
inverse, and ``C @ operator == F`` holds in integer arithmetic, so the
operator is exactly ``inv(C) @ F``.

All three matrices are built one way, by :func:`_kron_power`: every
per-axis entry is a small integer or a dyadic rational, so every
product is exact in any order.

Index conventions (shared with grid neighborhoods and coefficient
tensors, so the only permutation is the corner order of C and F):
    constraint row   r = corner_mask * 2^dim + quantity_mask
                     (axis d reads table row 2 * bit_d(corner)
                      + bit_d(quantity); Kronecker row
                      sum_d (2 * bit_d(corner) + bit_d(quantity)) * 4^d)
    monomial column  e = sum_d exponent_d * 4^d        (x fastest)
    sample column    n = sum_d (offset_d + 1) * 4^d    (offsets -1..2)
                     (axis d reads table column digit_d)
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from .errors import UnsupportedDimensionError, shown
from .grid import SUPPORTED_DIMS

# Row k holds the coefficient of u^k of the cubic through samples at
# offsets -1, 0, 1, 2 (columns) with centered-difference end slopes.
CATMULL_ROM = np.array([[0.0, 1.0, 0.0, 0.0],
                        [-0.5, 0.0, 0.5, 0.0],
                        [1.0, -2.5, 2.0, -0.5],
                        [-0.5, 1.5, -1.5, 0.5]])
CATMULL_ROM.flags.writeable = False

# The per-axis corner tables of C and F (see the module docstring).
CONSTRAINT_TABLE = np.array([[1, 0, 0, 0],
                             [0, 1, 0, 0],
                             [1, 1, 1, 1],
                             [0, 1, 2, 3]], dtype=np.int64)
DIFFERENCE_TABLE = np.array([[0.0, 1.0, 0.0, 0.0],
                             [-0.5, 0.0, 0.5, 0.0],
                             [0.0, 0.0, 1.0, 0.0],
                             [0.0, -0.5, 0.0, 0.5]])
CONSTRAINT_TABLE.flags.writeable = False
DIFFERENCE_TABLE.flags.writeable = False


def _check_dim(dim: int):
    # an integral type first: 3.0 == 3 would reach the cache of dim 3
    if not isinstance(dim, numbers.Integral) or dim not in SUPPORTED_DIMS:
        raise UnsupportedDimensionError(
            f"dimension must be one of {SUPPORTED_DIMS}, got {shown(dim)}")


# the per-axis table behind each matrix, by the name of its public builder
_TABLES = {"operator_set": CATMULL_ROM,
           "constraint_matrix": CONSTRAINT_TABLE,
           "difference_matrix": DIFFERENCE_TABLE}


@functools.cache
def _kron_power(name: str, dim: int) -> np.ndarray:
    # adding 0 turns the -0.0 products of a float table into +0.0, so the
    # operator matches the exact product inv(C) @ F bit for bit
    mat = functools.reduce(np.kron, [_TABLES[name]] * dim) + 0
    if name != "operator_set":
        # kron row sum_d table_row_d * 4^d holds constraint (v, q), with
        # table_row_d = 2 * bit_d(v) + bit_d(q); put them in corner order
        bits = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
        rows = (2 * bits[:, None] + bits[None, :]) @ (4 ** np.arange(dim))
        mat = mat[rows.ravel()]
    mat.flags.writeable = False
    return mat


def operator_set(dim: int) -> np.ndarray:
    """The read-only ``(4^dim, 4^dim)`` samples-to-coefficients operator.

    Row e (monomial column convention) times an element's flattened
    sample neighborhood gives its coefficient of monomial e. Built on
    the first call for ``dim``, then the same array every time.
    """
    _check_dim(dim)
    return _kron_power("operator_set", dim)


def constraint_matrix(dim: int) -> np.ndarray:
    """Integer matrix taking unit-cell polynomial coefficients to the
    constraint values at the element corners: the Kronecker power of
    ``CONSTRAINT_TABLE``, rows in corner order. Built on the first call
    for ``dim``, then the same read-only array every time."""
    _check_dim(dim)
    return _kron_power("constraint_matrix", dim)


def difference_matrix(dim: int) -> np.ndarray:
    """Central-difference operator from the sample neighborhood to the
    constraint values, as a dense float64 matrix: the Kronecker power
    of ``DIFFERENCE_TABLE``, rows in corner order. A row of derivative
    order k has 2^k nonzeros of magnitude 2^-k, exact in float64. Built
    on the first call for ``dim``, then the same read-only array every
    time."""
    _check_dim(dim)
    return _kron_power("difference_matrix", dim)


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
