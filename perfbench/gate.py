"""Correctness gate: counts failed evaluations and tracks error against the truth.

A point evaluation fails when the call raised, when it returned a
non-finite value or gradient, when it flagged an in-domain point
``ok=False``, when its error against the analytic field exceeds the
gross tolerances below, or when a second path (scalar against batch,
re-read CSV against ``eval_batch``) disagrees with it bitwise. No stored
output of an earlier commit is compared, so a change that moves results
by a few ulps passes the gate and shows in ``value_err_max`` and
``grad_err_max`` instead.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

# Relative to the field's value scale and per-axis gradient scale. The
# interpolation error on the benchmark grids is at most about 6.5e-3
# (values) and 5.5e-2 (gradients), on the 4D grid; the tolerances only
# catch results that are plainly wrong.
VALUE_TOL = 0.05
GRAD_TOL = 0.25


class Gate:
    def __init__(self, field):
        self.field = field
        self.attempted = 0
        self.failed = 0
        self.value_err_max = 0.0
        self.grad_err_max = 0.0
        self.reasons = Counter()

    def check(self, pts, values, grads, ok) -> np.ndarray:
        """Mask of failed points among in-domain ``pts``; updates error maxima."""
        values = np.asarray(values, dtype=float)
        grads = np.asarray(grads, dtype=float)
        ok = np.asarray(ok, dtype=bool)
        n = len(ok)
        finite = (np.isfinite(values).reshape(n, -1).all(axis=1)
                  & np.isfinite(grads).reshape(n, -1).all(axis=1))
        good = ok & finite
        true_v, true_g = self.field.evaluate(pts)
        verr = np.zeros(n)
        gerr = np.zeros(n)
        verr[good] = np.abs(values[good] - true_v[good]).max(axis=1) / self.field.value_scale
        gerr[good] = (np.abs(grads[good] - true_g[good])
                      / self.field.gradient_scale).reshape(int(good.sum()), -1).max(axis=1)
        if good.any():
            self.value_err_max = max(self.value_err_max, float(verr.max()))
            self.grad_err_max = max(self.grad_err_max, float(gerr.max()))
        inaccurate = (verr > VALUE_TOL) | (gerr > GRAD_TOL)
        self._note("not_ok", ~ok)
        self._note("non_finite", ok & ~finite)
        self._note("inaccurate", inaccurate)
        return ~good | inaccurate

    def bitwise(self, *pairs) -> np.ndarray:
        """Mask of rows where any ``(a, b)`` pair of result arrays differs in any bit."""
        differ = None
        for a, b in pairs:
            a = np.ascontiguousarray(a, dtype=np.float64)
            b = np.ascontiguousarray(b, dtype=np.float64)
            n = len(a)
            rows = (a.view(np.uint64).reshape(n, -1)
                    != b.view(np.uint64).reshape(n, -1)).any(axis=1)
            differ = rows if differ is None else differ | rows
        self._note("paths_differ", differ)
        return differ

    def raised(self, n: int, exc: BaseException) -> np.ndarray:
        self.reasons[f"raised {type(exc).__name__}"] += n
        return np.ones(n, dtype=bool)

    def tally(self, bad: np.ndarray):
        self.attempted += len(bad)
        self.failed += int(np.count_nonzero(bad))

    def _note(self, reason: str, mask: np.ndarray):
        k = int(np.count_nonzero(mask))
        if k:
            self.reasons[reason] += k
