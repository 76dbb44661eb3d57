"""
The operator behind the interpolant
===================================

One matrix per dimension turns a cell's 4-wide sample neighborhood
into its polynomial coefficients: the Kronecker power of the 4x4
Catmull-Rom basis matrix M. The paper derives the same operator from
two exact matrices,

  constraint C -- integer; polynomial coefficients -> corner constraints
  difference F -- exact dyadic rationals; samples  -> corner constraints

as inv(C) @ F. This script prints M, checks that the runtime operator is
kron(M, ..., M), checks that C has an integer inverse (C @ inv == I
exactly in int64), verifies C @ operator == F exactly in integers, and
cross-checks the operator against an independent dense solve.
"""

from functools import reduce

import numpy as np

from hyperspline.operators import (
    CATMULL_ROM,
    constraint_matrix,
    difference_matrix,
    integer_inverse,
    operator_is_exact,
    operator_set,
)

print("Catmull-Rom basis matrix M (row k: coefficient of u^k;")
print("columns: samples at offsets -1, 0, 1, 2):")
print(CATMULL_ROM)

for dim in (3, 4):
    op = operator_set(dim)
    n = op.shape[0]
    print(f"\n=== dimension {dim}: {n} x {n} operator ===")
    print(f"{2 ** dim} constraint quantities per corner")
    print(f"operator == kron(M, ..., M): "
          f"{np.array_equal(op, reduce(np.kron, [CATMULL_ROM] * dim))}, "
          f"{np.count_nonzero(op)} nonzero (11^{dim} = {11 ** dim})")

    c = constraint_matrix(dim)
    print(f"constraint matrix: integer entries in "
          f"[{c.min()}, {c.max()}], {np.count_nonzero(c)} nonzero")
    print(f"C has an integer inverse (C @ inv == I in int64): "
          f"{integer_inverse(c) is not None}")
    dens = difference_matrix(dim)
    print(f"difference matrix: {np.count_nonzero(dens)} nonzeros, "
          f"denominators up to {2 ** dim}")
    print(f"C @ (2^{dim} operator) == 2^{dim} F exactly in int64: "
          f"{operator_is_exact(dim)}")

    rng = np.random.default_rng(dim)
    x = rng.standard_normal(n)
    two_step = np.linalg.solve(c.astype(float), dens @ x)
    print(f"operator vs dense-solve on random samples: "
          f"max diff {np.abs(op @ x - two_step).max():.2e}")
