"""Element-local cubic interpolation straight from the sample stencil.

An :class:`Interpolator` wraps a grid and a boundary policy. An
element's cubic is the Kronecker power of the Catmull-Rom basis matrix
``M`` (see :mod:`hyperspline.operators`) applied to its 4^dim sample
neighborhood, so it is separable: its value at local coordinates ``u``
is the neighborhood contracted axis by axis, x first, with the weights
``w(u) = M^T (1, u, u^2, u^3)``, and a partial along one axis swaps in
the differentiated weights ``M^T (0, 1, 2u, 3u^2)`` on that axis. The
contraction carries the value and every partial opened so far, opening
each axis's partial from the value part as it reaches that axis. First
partials are rescaled by the axis spacing so results are in physical
units. No coefficient tensor is formed on this path.

Point, pinned-element and batch queries all run the same kernel, and it
sums every product in a fixed order with elementwise arithmetic only (no
BLAS, whose summation order depends on array shapes). Batched, threaded
and one-at-a-time evaluation therefore agree bit for bit, for any chunk
size.

The kernel takes the component-major gather of :mod:`hyperspline.grid`,
``(m, 4^dim, k)`` for k points, and keeps the point axis last and
contiguous through every step, so each elementwise product runs k long.
:meth:`Interpolator.eval_batch` evaluates its points in chunks; by
default a chunk holds as many points as fit 1.5 MB of gathered samples,
``max(1, 196608 // (m * 4^dim))`` (256 points in 4D, 1024 in 3D, with
m = 3), so a chunk's working set stays in L2 and the kernel's
temporaries reuse the same heap pages from chunk to chunk.

A single-point query (``eval``, ``eval_with_gradient``, ``derivative``)
takes about 100 µs in 4D on a 2-CPU Xeon VM, almost all of it numpy
dispatch on tiny arrays, so its path keeps the call count low:
:func:`~hyperspline.grid.locate` reads the grid's precomputed per-axis
locate rows on Python floats, :func:`~hyperspline.grid.neighborhood_block`
fetches a cell whose stencil lies on the grid with one ``take``, the
weights are evaluated only for the (order, axis) pairs the contraction
opens, and with k = 1 the kernel forms each axis's products in one
broadcast multiply and sums them in the same j = 0..3 order as the
batch path's per-j loop.

Per-element coefficient tensors ``operator @ samples`` stay available
through :meth:`Interpolator.coefficients`, cached, for validation
against the exact derivation and for the coefficient-cache file format
(:mod:`hyperspline.io`); evaluation neither reads nor fills that cache.

Module contents:
    QueryResult   -- values + physical-unit gradient at one point
    BatchResult   -- struct-of-arrays result for many points
    Interpolator  -- the interpolant, its stencil kernel and coefficient cache
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, HypersplineError, OutOfDomainError
from .grid import (
    BoundaryPolicy,
    ElementRef,
    RegularGrid,
    as_coordinates,
    gather_neighborhoods,
    locate,
    locate_points,
    neighborhood_block,
)
from .operators import CATMULL_ROM, operator_set


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


def _horner_table() -> np.ndarray:
    """Coefficients of the Catmull-Rom weights and their derivatives.

    Entry ``[i, k, 0, j, 0]`` is the coefficient of ``u^(3-i)`` in the
    k-th derivative of weight j of ``M^T (1, u, u^2, u^3)``; orders
    k > 0 are padded with leading zeros, which Horner's rule passes
    through exactly. All entries are small dyadic rationals.
    """
    table = np.zeros((4, 4, 1, 4, 1))
    for k in range(4):
        for i in range(k, 4):
            table[3 - (i - k), k, 0, :, 0] = math.perm(i, k) * CATMULL_ROM[i]
    table.flags.writeable = False
    return table


_HORNER = _horner_table()

# gathered samples in a default eval_batch chunk (1.5 MB of float64; see
# the module docstring)
_CHUNK_SAMPLES = 196608


def _weights(u: np.ndarray, orders, axes) -> np.ndarray:
    """Catmull-Rom weights of the (order, axis) pairs a plan opens.

    ``u`` is ``(dim, k)``. Entry ``[n, j, i]`` of the ``(len(orders), 4,
    k)`` result weighs the sample at offset ``j - 1`` on axis
    ``axes[n]`` for point i in the order-``orders[n]`` partial along it.
    Elementwise Horner.
    """
    h = _HORNER.take(orders, 1)[:, :, 0]
    u = u.take(axes, 0)[:, None]
    w = h[0] * u + h[1]
    w = w * u + h[2]
    return w * u + h[3]


@functools.cache
def _plan(rows: tuple):
    """Contraction schedule for the partials ``rows`` (per-axis orders).

    After axis d the kernel carries the distinct length-(d+1) prefixes
    of the rows. Returns, per axis, the index of the carried partial
    each new one extends, and for all steps together the derivative
    order and axis of each new partial's weights.
    """
    carried = [()]
    sources, orders, axes = [], [], []
    for d in range(len(rows[0])):
        keys = list(dict.fromkeys(r[:d + 1] for r in rows))
        sources.append(np.array([carried.index(k[:-1]) for k in keys]))
        orders += [k[-1] for k in keys]
        axes += [d] * len(keys)
        carried = keys
    plan = sources + [np.array(orders), np.array(axes)]
    for a in plan:
        a.flags.writeable = False
    return plan[:-2], plan[-2], plan[-1]


def _stencil_kernel(samples: np.ndarray, u: np.ndarray,
                    rows: tuple) -> np.ndarray:
    """Partials ``rows`` of k cubics straight from their sample stencils.

    ``samples`` is ``(m, 4^dim, k)`` as gathered, ``u`` the ``(dim, k)``
    local coordinates, and ``rows`` a tuple of per-axis derivative
    orders (0..3). Returns ``(len(rows), m, k)`` unit-cell partials.
    Axes are contracted x first, each product sum in the order
    j = 0..3, with elementwise operations only, so every output entry
    is computed the same way whatever k or the other rows are.
    """
    m, _, k = samples.shape
    sources, orders, axes = _plan(rows)
    weights = _weights(u, orders, axes)
    part = samples[None]
    start = 0
    for source in sources:
        if len(part) > 1:
            # ndarray.take: on one point's arrays, under half the cost
            # of fancy indexing
            part = part.take(source, 0)
        # sample rows run t..x, so the axis contracted next varies
        # fastest; a single carried partial broadcasts against all the
        # weight rows it opens
        part = part.reshape(len(part), m, -1, 4, k)
        w = weights[start:start + len(source), None, None]
        start += len(source)
        if k == 1:
            # one point: all the products in one multiply, summed in the
            # same j = 0..3 order; for a chunk of points that product
            # temporary would take megabytes and leave L2
            prod = part * w
            acc = prod[:, :, :, 0] + prod[:, :, :, 1]
            acc += prod[:, :, :, 2]
            acc += prod[:, :, :, 3]
        else:
            acc = part[:, :, :, 0] * w[:, :, :, 0]
            for j in range(1, 4):
                acc += part[:, :, :, j] * w[:, :, :, j]
        part = acc
    return part.reshape(len(rows), m, k)


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

    Concurrent queries are safe: evaluation only reads the immutable
    grid, and the coefficient cache is filled with complete, immutable
    tensors only (a racing first touch may compute the same tensor
    twice, never observe a partial one).
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
        # the value, then the first partial along each axis
        self._gradient_rows = tuple(
            tuple(int(e == d) for e in range(grid.dim))
            for d in range(-1, grid.dim))
        self._cache: dict = {}

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def components(self) -> int:
        return self.grid.components

    # -- coefficient cache ------------------------------------------------

    def _check_base(self, base: tuple):
        for b, (lo, hi) in zip(base, self._base_range):
            if not lo <= b <= hi:
                raise IndexError(
                    f"element base {base} outside valid range under "
                    f"{self.policy.value}")

    def coefficients(self, elem: ElementRef) -> np.ndarray:
        """Coefficient tensor of one element, shape ``(m, 4^dim)``.

        Row c holds the flattened unit-cell coefficients of component c
        (monomial column e = sum_d exponent_d * 4^d). Computed on first
        touch, then served read-only from the cache. Evaluation does not
        use it; it serves validation and the coefficient-cache file.
        """
        key = elem.base
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self._check_base(key)
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
        """Insert an externally restored coefficient tensor (see io).

        Raises IndexError for a base outside the policy's valid range,
        as :meth:`coefficients` does.
        """
        base = tuple(int(b) for b in base)
        self._check_base(base)
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
        """Fill the cache for every valid element."""
        ranges = [range(lo, hi + 1) for lo, hi in self._base_range]
        grids = np.meshgrid(*ranges, indexing="ij")
        for base in zip(*(g.reshape(-1) for g in grids)):
            self.coefficients(ElementRef(base))

    # -- point evaluation --------------------------------------------------

    def _partials(self, elem: ElementRef, u, rows) -> np.ndarray:
        """Unit-cell partials ``rows`` at local ``u`` in one element."""
        block = neighborhood_block(self.grid, elem, self.policy)
        u = np.asarray(u)[:, None]
        return _stencil_kernel(block.T[:, :, None], u, rows)[:, :, 0]

    def eval(self, point) -> np.ndarray:
        """Interpolated field values at a point, shape ``(m,)``."""
        elem, u = locate(self.grid, point, self.policy)
        return self._partials(elem, u, self._gradient_rows[:1])[0]

    def eval_with_gradient(self, point) -> QueryResult:
        """Values plus all first partials (physical units) at a point."""
        elem, u = locate(self.grid, point, self.policy)
        # locate has already clamped u to the unit cell
        part = self._partials(elem, u, self._gradient_rows)
        return QueryResult(part[0], part[1:].T / self._spacings)

    def eval_local(self, elem: ElementRef, u) -> QueryResult:
        """Evaluate in a pinned element at local coordinates ``u``.

        Lets callers probe a shared face from both adjacent elements
        (u = 1 on one side, u = 0 on the other), which an ordinary
        point query cannot express. Raises IndexError for an element
        outside the policy's valid range.
        """
        u = as_coordinates(u)
        if u.shape != (self.dim,):
            raise DimensionMismatchError(f"u must have {self.dim} entries")
        if not np.all((u >= 0.0) & (u <= 1.0)):
            raise ValueError(f"local coordinates must lie in [0, 1], got {u}")
        part = self._partials(elem, u, self._gradient_rows)
        return QueryResult(part[0], part[1:].T / self._spacings)

    def derivative(self, point, orders) -> np.ndarray:
        """Raw mixed partial with per-axis derivative orders, ``(m,)``.

        ``orders[d]`` in 0..3 differentiates axis d that many times; the
        result is rescaled by ``spacing**order`` per axis to physical
        units. Unlike values and first partials, partials of total
        order >= 2 carry no continuity guarantee across element faces.
        """
        orders = tuple(int(k) for k in orders)
        if len(orders) != self.dim:
            raise DimensionMismatchError(
                f"orders must have {self.dim} entries, got {orders}")
        if any(k < 0 or k > 3 for k in orders):
            raise ValueError(
                f"orders must be {self.dim} integers in 0..3, got {orders}")
        elem, u = locate(self.grid, point, self.policy)
        out = self._partials(elem, u, (orders,))[0]
        scale = float(np.prod(self._spacings ** np.array(orders)))
        return out / scale

    # -- batch evaluation ---------------------------------------------------

    def eval_batch(self, points, threads=None, chunk_size: int | None = None
                   ) -> BatchResult:
        """Evaluate many points; out-of-domain ones are flagged, not fatal.

        Equivalent, bit for bit, to calling :meth:`eval_with_gradient`
        per point. Points are evaluated ``chunk_size`` at a time; the
        default is the largest chunk whose gathered samples take at most
        1.5 MB (256 points in 4D, 1024 in 3D, with 3 components). Chunks
        may be processed by ``threads`` workers (``HYPERSPLINE_THREADS``
        caps this; output order is independent of scheduling).
        """
        if chunk_size is None:
            chunk_size = max(1, _CHUNK_SAMPLES
                             // (self.components * 4 ** self.dim))
        if (not isinstance(chunk_size, numbers.Integral)
                or isinstance(chunk_size, bool) or chunk_size <= 0):
            raise ValueError(
                f"chunk_size must be a positive integer, got {chunk_size!r}")
        pts = as_coordinates(points)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatchError(
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
        bases, u, inside = locate_points(self.grid, pts, self.policy)
        ok[:] = inside
        hit = np.flatnonzero(inside)
        if hit.size == 0:
            return
        block = gather_neighborhoods(self.grid, bases[hit], self.policy)
        part = _stencil_kernel(block, u[:, hit], self._gradient_rows)
        values[hit] = part[0].T
        gradients[hit] = part[1:].T / self._spacings
