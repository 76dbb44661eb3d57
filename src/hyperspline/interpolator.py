"""Element-local cubic interpolation with cached coefficients.

An :class:`Interpolator` wraps a grid and a boundary policy. Per element
it computes, on first touch, the coefficient tensor ``operator @ samples``
(one row of 4^dim coefficients per field component, in unit-cell
coordinates) and caches it; the operator is the Kronecker power of the
Catmull-Rom basis matrix (see :mod:`hyperspline.operators`). Queries
locate the element, pull its cached tensor, and contract it with
per-axis power vectors ``(1, u, u^2, u^3)`` by nested Horner
evaluation, innermost axis first. Substituting the differentiated
vector ``(0, 1, 2u, 3u^2)`` on one axis gives that partial; first
partials are rescaled by the axis spacing so results are in physical
units.

The batch path runs the very same elementwise kernel over stacked
points, so batched, threaded and one-at-a-time evaluation agree bit for
bit.

Module contents:
    QueryResult   -- values + physical-unit gradient at one point
    BatchResult   -- struct-of-arrays result for many points
    Interpolator  -- the stateful interpolant with its coefficient cache
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import HypersplineError, OutOfDomainError
from .grid import (
    BoundaryPolicy,
    ElementRef,
    RegularGrid,
    locate,
    neighborhood_block,
)
from .operators import operator_set


@dataclass(frozen=True)
class QueryResult:
    """Interpolated values ``(m,)`` and gradient ``(m, dim)`` at a point.

    Gradient row d is the partial along axis d in physical units (the
    unit-cell partial divided by the axis spacing).
    """

    values: np.ndarray
    gradient: np.ndarray


@dataclass(frozen=True)
class BatchResult:
    """Vectorized results for n points.

    ``values`` is ``(n, m)`` and ``gradients`` ``(n, m, dim)``; rows for
    points outside the queryable domain hold NaN and are flagged False
    in ``ok``. A batch never aborts wholesale on such points.
    """

    values: np.ndarray
    gradients: np.ndarray
    ok: np.ndarray

    def __len__(self) -> int:
        return len(self.ok)

    def __getitem__(self, i: int):
        if not self.ok[i]:
            raise OutOfDomainError(f"point {i} was outside the domain")
        return QueryResult(self.values[i], self.gradients[i])


def _contract(coeffs, us, orders=None):
    """Contract trailing ``dim`` tensor axes with per-axis power vectors.

    ``coeffs`` has trailing axes (e_last, ..., e_x); axis d of ``us`` is
    consumed at step d, innermost (x) first. ``orders[d]`` selects the
    d-th derivative of the cubic on that axis (0..3; higher gives 0).
    Entries of ``us`` may be scalars or 1-d arrays over a leading batch
    axis; every arithmetic operation is elementwise, so batched and
    scalar evaluation produce bitwise-identical values per point.
    """
    r = coeffs
    for d in range(len(us)):
        ud = us[d]
        k = 0 if orders is None else orders[d]
        a3, a2, a1, a0 = r[..., 3], r[..., 2], r[..., 1], r[..., 0]
        if isinstance(ud, np.ndarray) and ud.ndim == 1 and a3.ndim > 1:
            ud = ud.reshape((-1,) + (1,) * (a3.ndim - 1))
        if k == 0:
            r = ((a3 * ud + a2) * ud + a1) * ud + a0
        elif k == 1:
            r = (3.0 * a3 * ud + 2.0 * a2) * ud + a1
        elif k == 2:
            r = 6.0 * a3 * ud + 2.0 * a2
        elif k == 3:
            r = 6.0 * a3
        else:
            r = np.zeros_like(a0)
    return r


def _resolve_threads(requested=None) -> int:
    """Worker count for batch evaluation.

    ``HYPERSPLINE_THREADS`` caps (and, when no explicit count is given,
    supplies) the parallelism; the value 0 means one worker per CPU.
    Without the variable the default is serial.

    Raises
    ------
    HypersplineError
        If the variable is set to anything but a non-negative integer.
    """
    env = os.environ.get("HYPERSPLINE_THREADS", "").strip()
    cap = None
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = -1
        if cap < 0:
            raise HypersplineError(
                f"HYPERSPLINE_THREADS must be a non-negative integer, "
                f"got {env!r}")
        if cap == 0:
            cap = os.cpu_count() or 1
    if requested is None or requested == 0:
        requested = cap if cap is not None else 1
    if cap is not None:
        requested = min(requested, cap)
    return max(1, int(requested))


class Interpolator:
    """Cubic interpolant over a regular 3D or 4D grid.

    Parameters
    ----------
    grid : RegularGrid
    policy : BoundaryPolicy, optional
        Strict (default) confines queries to elements with a full
        sample neighborhood; LinearGhost extends them to the whole grid
        via linear ghost layers.

    Concurrent queries are safe: the coefficient cache is filled with
    complete, immutable tensors only (a racing first touch may compute
    the same tensor twice, never observe a partial one).
    """

    def __init__(self, grid: RegularGrid,
                 policy: BoundaryPolicy = BoundaryPolicy.STRICT):
        if not isinstance(policy, BoundaryPolicy):
            policy = BoundaryPolicy(policy)
        self.grid = grid
        self.policy = policy
        self.operator = operator_set(grid.dim)
        self._spacings = np.array([a.spacing for a in grid.axes])
        self._base_range = grid.element_base_range(policy)
        self._cache: dict = {}

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def components(self) -> int:
        return self.grid.components

    # -- coefficient cache ------------------------------------------------

    def coefficients(self, elem: ElementRef) -> np.ndarray:
        """Coefficient tensor of one element, shape ``(m, 4^dim)``.

        Row c holds the flattened unit-cell coefficients of component c
        (monomial column e = sum_d exponent_d * 4^d). Computed on first
        touch, then served read-only from the cache.
        """
        key = elem.base
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        for b, (lo, hi) in zip(key, self._base_range):
            if not lo <= b <= hi:
                raise IndexError(
                    f"element base {key} outside valid range under "
                    f"{self.policy.value}")
        block = neighborhood_block(self.grid, elem, self.policy)
        coeffs = np.ascontiguousarray((self.operator @ block).T)
        coeffs.flags.writeable = False
        self._cache[key] = coeffs
        return coeffs

    def cache_size(self) -> int:
        return len(self._cache)

    def cache_items(self):
        """Snapshot of cached (base tuple, coefficient tensor) pairs."""
        return list(self._cache.items())

    def install_cache_entry(self, base, coeffs: np.ndarray):
        """Insert an externally restored coefficient tensor (see io)."""
        base = tuple(int(b) for b in base)
        arr = np.ascontiguousarray(coeffs, dtype=np.float64)
        shape = (self.components, 4 ** self.dim)
        if arr.shape != shape:
            raise ValueError(
                f"coefficient tensor must have shape {shape}, got {arr.shape}")
        arr.flags.writeable = False
        self._cache[base] = arr

    def clear_cache(self):
        self._cache = {}

    def precompute_all(self):
        """Fill the cache for every valid element (bulk workloads only)."""
        ranges = [range(lo, hi + 1) for lo, hi in self._base_range]
        grids = np.meshgrid(*ranges, indexing="ij")
        for base in zip(*(g.reshape(-1) for g in grids)):
            self.coefficients(ElementRef(base))

    # -- point evaluation --------------------------------------------------

    def _tensor(self, elem: ElementRef) -> np.ndarray:
        c = self.coefficients(elem)
        return c.reshape((self.components,) + (4,) * self.dim)

    def eval(self, point) -> np.ndarray:
        """Interpolated field values at a point, shape ``(m,)``."""
        elem, u = locate(self.grid, point, self.policy)
        t = self._tensor(elem)
        return np.asarray(_contract(t, [float(x) for x in u]))

    def eval_with_gradient(self, point) -> QueryResult:
        """Values plus all first partials (physical units) at a point."""
        elem, u = locate(self.grid, point, self.policy)
        return self.eval_local(elem, u)

    def eval_local(self, elem: ElementRef, u) -> QueryResult:
        """Evaluate in a pinned element at local coordinates ``u``.

        Lets callers probe a shared face from both adjacent elements
        (u = 1 on one side, u = 0 on the other), which an ordinary
        point query cannot express.
        """
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.dim,):
            raise ValueError(f"u must have {self.dim} entries")
        if not np.all((u >= 0.0) & (u <= 1.0)):
            raise ValueError(f"local coordinates must lie in [0, 1], got {u}")
        t = self._tensor(elem)
        us = [float(x) for x in u]
        values = np.asarray(_contract(t, us))
        gradient = np.empty((self.components, self.dim))
        for d in range(self.dim):
            orders = [0] * self.dim
            orders[d] = 1
            gradient[:, d] = _contract(t, us, orders)
        gradient /= self._spacings
        return QueryResult(values, gradient)

    def derivative(self, point, orders) -> np.ndarray:
        """Raw mixed partial with per-axis derivative orders, ``(m,)``.

        ``orders[d]`` in 0..3 differentiates axis d that many times; the
        result is rescaled by ``spacing**order`` per axis to physical
        units. Unlike values and first partials, partials of total
        order >= 2 carry no continuity guarantee across element faces.
        """
        orders = tuple(int(k) for k in orders)
        if len(orders) != self.dim or any(k < 0 or k > 3 for k in orders):
            raise ValueError(
                f"orders must be {self.dim} integers in 0..3, got {orders}")
        elem, u = locate(self.grid, point, self.policy)
        t = self._tensor(elem)
        out = _contract(t, [float(x) for x in u], orders)
        scale = float(np.prod(self._spacings ** np.array(orders)))
        return np.asarray(out) / scale

    # -- batch evaluation ---------------------------------------------------

    def eval_batch(self, points, threads=None, chunk_size: int = 4096
                   ) -> BatchResult:
        """Evaluate many points; out-of-domain ones are flagged, not fatal.

        Equivalent, bit for bit, to calling :meth:`eval_with_gradient`
        per point. Chunks may be processed by ``threads`` workers
        (``HYPERSPLINE_THREADS`` caps this; output order is independent
        of scheduling).
        """
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(
                f"points must have shape (n, {self.dim}), got {pts.shape}")
        n = pts.shape[0]
        m = self.components
        values = np.full((n, m), np.nan)
        gradients = np.full((n, m, self.dim), np.nan)
        ok = np.zeros(n, dtype=bool)
        if n == 0:
            return BatchResult(values, gradients, ok)

        spans = [(s, min(s + chunk_size, n)) for s in range(0, n, chunk_size)]
        workers = _resolve_threads(threads)

        def run(span):
            s, e = span
            self._eval_chunk(pts[s:e], values[s:e], gradients[s:e], ok[s:e])

        if workers > 1 and len(spans) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run, spans))
        else:
            for span in spans:
                run(span)
        return BatchResult(values, gradients, ok)

    def _eval_chunk(self, pts, values, gradients, ok):
        # vectorized locate: the same elementwise arithmetic as
        # grid.locate, so element/u assignments agree bitwise with it
        n = pts.shape[0]
        bases = np.empty((n, self.dim), dtype=np.int64)
        u_mat = np.empty((n, self.dim))
        good = np.ones(n, dtype=bool)
        for d in range(self.dim):
            a = self.grid.axes[d]
            lo, hi = self._base_range[d]
            x = pts[:, d]
            good &= (x >= a.coordinate(lo)) & (x <= a.coordinate(hi + 1))
            b = np.floor((x - a.origin) / a.spacing)
            b = np.where(np.isfinite(b), b, lo)
            b = np.clip(b, lo, hi)
            u = (x - (a.origin + b * a.spacing)) / a.spacing
            bases[:, d] = b
            u_mat[:, d] = np.clip(u, 0.0, 1.0)
        ok[:] = good
        hit = np.nonzero(good)[0]
        if hit.size == 0:
            return
        uniq, inv = np.unique(bases[hit], axis=0, return_inverse=True)
        stacked = np.stack([self._tensor(ElementRef(tuple(row)))
                            for row in uniq])
        tensors = stacked[inv.reshape(-1)]  # (h, m, 4, ..., 4)
        us = [u_mat[hit, d] for d in range(self.dim)]
        values[hit] = _contract(tensors, us)
        grads = np.empty((len(hit), self.components, self.dim))
        for d in range(self.dim):
            orders = [0] * self.dim
            orders[d] = 1
            grads[..., d] = _contract(tensors, us, orders)
        grads /= self._spacings
        gradients[hit] = grads
