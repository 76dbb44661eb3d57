"""Element-local cubic interpolation straight from the sample stencil.

An :class:`Interpolator` wraps a grid and a boundary policy. An
element's cubic is the Kronecker power of the Catmull-Rom basis matrix
``M`` (see :mod:`hyperspline.operators`) applied to its 4^dim sample
neighborhood, so it is separable: its value at local coordinates ``u``
is the neighborhood contracted axis by axis with the weights
``w(u) = M^T (1, u, u^2, u^3)``, and a partial along one axis swaps in
the differentiated weights ``M^T (0, 1, 2u, 3u^2)`` on that axis. Each
axis is contracted with both at once, so after the last axis a kernel
holds all 2^dim combinations: the value in column 0 and the first
partial along axis d in column ``1 << d``. First partials are rescaled
by the axis spacing so results are in physical units. No coefficient
tensor is formed on this path.

Two kernels run the contraction, both on stencils copied by
:mod:`hyperspline.grid` as 4^(dim-1) x-runs of 4 vertices x m
components and viewed as float64 ``(4^dim, m)`` per point. Per axis
each makes one matrix product per point, ``(rest, 4) @ (4, 2)``: 960
multiplies per component in 4D and 224 in 3D.

- The batch kernel, :func:`_stencil_kernel`, behind
  :meth:`Interpolator.eval_batch`, computes values and first partials
  only. It builds the weights of k points in one points-last table and
  stacks their products in one ``np.matmul`` per axis on the ``(k,
  4^dim, m)`` gather. ``eval_batch`` locates all its points at once,
  holding their bases and local coordinates (16 * dim bytes per
  point), then gathers, contracts and stores them in one loop over
  chunks whose size the grid sets: as many points as fit 1.5 MB of
  gathered samples, ``max(1, 196608 // (m * 4^dim))`` (256 points in
  4D, 1024 in 3D, with m = 3), so a chunk's working set stays in L2.
- The one-point kernel, :func:`_point_kernel`, behind ``eval``,
  ``eval_with_gradient``, ``eval_local`` and ``derivative``, builds one
  point's ``(dim, 4, 2)`` weights with Horner's rule on rows of the
  table read where they lie, and makes each axis's product as one 2D
  ``@``: none of the batch's transposed copy and stacked reshapes,
  which at k = 1 cost a sixth of the kernel's time. Higher partials are
  its alone: ``derivative`` swaps in the table rows of its orders.

On first partials they agree bit for bit: a weight is the same Horner
steps on the same table row in either kernel, and a point's product
has the same shapes and strides whether it stands alone or sits in a
stack of any k, so BLAS does the same arithmetic for it. So a point's
row of ``eval_batch``, whatever its chunk, equals its single-point
query. One kernel for both paths kept the batch level but slowed
single points by a tenth.

A single-point query locates with :func:`~hyperspline.grid.locate`,
which reads the grid's region table on Python floats and returns a
cell reference without ``ElementRef``'s integer conversion of its
base, and gathers with :func:`~hyperspline.grid.neighborhood_block`,
which range-checks the cell and copies its x-runs out of the grid's
strided stencil view, as the batch gather does for many cells at
once. The grid stores its ghost layers, so the boundary policy only
sets which cells are valid: an edge cell under ``LinearGhost`` costs
the same as an interior one, on both paths. A
batch chunk evaluates every one of its rows: a point outside the domain
has a clamped base, so it reads a valid stencil, and its row is set to
NaN once the chunks are done.

An interpolator holds no mutable state and no per-cell state, so
evaluation needs nothing precomputed and any query, ``eval_batch``
included, may run from several threads at once, each call serially in
its own thread; slices of a batch evaluated in parallel give,
concatenated, the bits of one call. A cell's coefficient tensor
``operator @ samples`` is available through
:meth:`Interpolator.coefficients`, computed on each call for inspection
only; evaluation never forms it, and no interpolator asks for the
operator until a coefficient is requested.
Validation checks the one-point kernel, and so the batch kernel that
agrees with it, against the exact derivation
(:func:`hyperspline.fields.check_fused_oracle`).

Module contents:
    QueryResult   -- values + physical-unit gradient at one point
    BatchResult   -- struct-of-arrays result for many points
    Interpolator  -- the interpolant, its two kernels and cell coefficients
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    OutOfDomainError,
    PointIndexError,
    shown,
)
from .grid import (
    BoundaryPolicy,
    ElementRef,
    RegularGrid,
    _stencils,
    as_coordinates,
    as_policy,
    is_integer,
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

    def __getitem__(self, i: int) -> QueryResult:
        """The result of point ``i``, an integer (not a bool); a negative
        one counts from the end. Raises InvalidArgumentError for any
        other index, PointIndexError (an IndexError, which ends
        ``for r in batch``) past the points and OutOfDomainError for a
        point outside the domain."""
        if not is_integer(i):
            raise InvalidArgumentError(
                f"batch index must be an integer, got {shown(i)}")
        n = len(self.ok)
        if not -n <= i < n:
            raise PointIndexError(
                f"point index {shown(i)} out of range for {n} points")
        if not self.ok[i]:
            raise OutOfDomainError(f"point {i} was outside the domain")
        return QueryResult(self.values[i], self.gradients[i])


def _horner_table() -> np.ndarray:
    """Coefficients of the Catmull-Rom weights and their derivatives.

    Entry ``[r, i, j, 0]`` is the coefficient of ``u^(3-i)`` in weight j
    of ``M^T (1, u, u^2, u^3)`` and ``[r, i, j, 1]`` that in its r-th
    derivative; derivatives are padded with leading zeros, which
    Horner's rule passes through exactly. All entries are small dyadic
    rationals.
    """
    table = np.zeros((4, 4, 4, 2))
    for r in range(4):
        for i in range(r, 4):
            table[r, 3 - (i - r), :, 1] = math.perm(i, r) * CATMULL_ROM[i]
    table[..., 0] = table[0, ..., 1]
    table.flags.writeable = False
    return table


_HORNER = _horner_table()


def _stencil_kernel(samples: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Values and first partials of k cubics straight from their sample
    stencils: the batch kernel.

    ``samples`` is ``(k, 4^dim, m)`` as gathered and ``u`` the ``(dim,
    k)`` local coordinates. Returns ``(k, m, 2^dim)`` unit-cell partials:
    entry ``[i, c, s]`` differentiates axis d once if bit d of s is set.
    Horner's rule runs on a points-last ``(dim, 4, 2, k)`` weight table,
    one long inner loop a step. Each axis is one matrix product per
    point, ``(rest, 4) @ (4, 2)``, whose shapes and strides do not
    depend on k, so every point is computed the same way in any batch.
    """
    k, _, m = samples.shape
    h = _HORNER[1][..., None]
    uu = u[:, None, None, :]
    w = ((h[0] * uu + h[1]) * uu + h[2]) * uu + h[3]
    w = np.ascontiguousarray(w.transpose(0, 3, 1, 2))
    part = samples
    # stencil rows run t..x, so the slowest row axis is the last grid
    # axis; each step moves its pair of partials to the end
    for d in reversed(range(len(u))):
        part = np.matmul(part.reshape(k, 4, -1).transpose(0, 2, 1), w[d])
    return part.reshape(k, m, -1)


def _point_kernel(samples: np.ndarray, u: np.ndarray,
                  orders=None) -> np.ndarray:
    """Partials of one cubic straight from its sample stencil: the
    one-point kernel.

    ``samples`` is one ``(4^dim, m)`` stencil, ``u`` its ``(dim,)``
    local coordinates and ``orders`` the derivative order (0..3) on each
    axis, all 1 if None. Returns the ``(m, 2^dim)`` partials: entry
    ``[c, s]`` differentiates axis d ``orders[d]`` times if bit d of s
    is set. Its first partials are bit for bit
    ``_stencil_kernel(samples[None], u[:, None])[0]``: the same Horner
    steps on the same table row, and per axis the batch kernel's
    per-point product with the same shapes and strides, as one 2D
    ``matmul``.
    """
    # the table is read at call time, so a patched one reaches the kernel
    h = (_HORNER[1] if orders is None
         else _HORNER.take(orders, 0).swapaxes(0, 1))
    uu = u[:, None, None]
    w = ((h[0] * uu + h[1]) * uu + h[2]) * uu + h[3]
    part = samples
    for d in reversed(range(len(u))):
        part = part.reshape(4, -1).T @ w[d]
    return part.reshape(samples.shape[1], -1)


class Interpolator:
    """Cubic interpolant over a regular 3D or 4D grid.

    Parameters
    ----------
    grid : RegularGrid
    policy : BoundaryPolicy or its value, optional
        Strict (default) confines queries to elements with a full
        sample neighborhood; LinearGhost extends them to the whole grid
        via linear ghost layers. ``policy`` holds the member.

    It holds no mutable state and evaluation only reads the immutable
    grid, so any method, ``eval_batch`` included, may be called from
    several threads at once.
    """

    def __init__(self, grid: RegularGrid,
                 policy: BoundaryPolicy = BoundaryPolicy.STRICT):
        if not isinstance(grid, RegularGrid):
            raise InvalidArgumentError(
                f"grid must be a RegularGrid, got {shown(grid)}")
        self.grid = grid
        self.policy = as_policy(policy)
        self._spacings = np.array([a.spacing for a in grid.axes])
        # the columns of the first partial along each axis, as an index
        # array numpy takes as is
        self._gradient_cols = np.array([1 << d for d in range(grid.dim)],
                                       dtype=np.intp)
        # points per eval_batch chunk: 1.5 MB of gathered float64 samples
        self._chunk = max(1, 196608 // (grid.components * 4 ** grid.dim))

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def components(self) -> int:
        return self.grid.components

    # -- per-cell coefficients ---------------------------------------------

    def coefficients(self, elem: ElementRef) -> np.ndarray:
        """Coefficient tensor of one element, shape ``(m, 4^dim)``.

        Row c holds the flattened unit-cell coefficients of component c
        (monomial column e = sum_d exponent_d * 4^d), computed afresh,
        C-contiguous, on every call. Evaluation does not use it; it
        serves inspection. Raises ElementOutOfRangeError (an IndexError)
        for an element outside the policy's valid range.
        """
        block = neighborhood_block(self.grid, elem, self.policy)
        return (operator_set(self.dim) @ block).T.copy()

    def cache_size(self) -> int:
        """Always 0; kept for existing callers, goes with ROADMAP item 6."""
        return 0

    def precompute_all(self):
        """No-op; kept for existing callers, goes with ROADMAP item 6."""

    # -- point evaluation --------------------------------------------------

    def _partials(self, elem: ElementRef, u: np.ndarray,
                  orders=None) -> np.ndarray:
        """Unit-cell partials ``(m, 2^dim)`` at the ``(dim,)`` float64
        local coordinates ``u`` in one element (see
        :func:`_point_kernel`); first partials by default."""
        return _point_kernel(neighborhood_block(self.grid, elem, self.policy),
                             u, orders)

    def _with_gradient(self, part: np.ndarray) -> QueryResult:
        # copied: a view would keep the kernel's partials array alive
        return QueryResult(part[:, 0].copy(),
                           part[:, self._gradient_cols] / self._spacings)

    def eval(self, point) -> np.ndarray:
        """Interpolated field values at a point, shape ``(m,)``."""
        elem, u = locate(self.grid, point, self.policy)
        return self._partials(elem, u)[:, 0].copy()

    def eval_with_gradient(self, point) -> QueryResult:
        """Values plus all first partials (physical units) at a point."""
        elem, u = locate(self.grid, point, self.policy)
        # locate has already clamped u to the unit cell
        return self._with_gradient(self._partials(elem, u))

    def eval_local(self, elem: ElementRef, u) -> QueryResult:
        """Evaluate in a pinned element at local coordinates ``u``.

        Lets callers probe a shared face from both adjacent elements
        (u = 1 on one side, u = 0 on the other), which an ordinary
        point query cannot express. Raises ElementOutOfRangeError (an
        IndexError) for an element outside the policy's valid range.
        """
        u = as_coordinates(u)
        if u.shape != (self.dim,):
            raise DimensionMismatchError(f"u must have {self.dim} entries")
        if not np.all((u >= 0.0) & (u <= 1.0)):
            raise InvalidArgumentError(
                f"local coordinates must lie in [0, 1], got {u}")
        return self._with_gradient(self._partials(elem, u))

    def derivative(self, point, orders) -> np.ndarray:
        """Raw mixed partial with per-axis derivative orders, ``(m,)``.

        ``orders[d]``, an integer in 0..3, differentiates axis d that
        many times; the result is rescaled by ``spacing**order`` per axis
        to physical units. Unlike values and first partials, partials of
        total order >= 2 carry no continuity guarantee across element
        faces.
        """
        try:
            orders = tuple(orders)
        except TypeError:
            raise InvalidArgumentError(
                f"orders must be {self.dim} integers in 0..3, "
                f"got {shown(orders)}") from None
        if len(orders) != self.dim:
            raise DimensionMismatchError(
                f"orders must have {self.dim} entries, got {shown(orders)}")
        if not all(is_integer(k) and 0 <= k <= 3 for k in orders):
            raise InvalidArgumentError(
                f"orders must be {self.dim} integers in 0..3, "
                f"got {shown(orders)}")
        orders = tuple(int(k) for k in orders)
        elem, u = locate(self.grid, point, self.policy)
        col = sum(1 << d for d, k in enumerate(orders) if k)
        out = self._partials(elem, u, orders)[:, col]
        scale = float(np.prod(self._spacings ** np.array(orders)))
        return out / scale

    # -- batch evaluation ---------------------------------------------------

    def eval_batch(self, points) -> BatchResult:
        """Evaluate many points; out-of-domain ones are flagged, not fatal.

        Equivalent, bit for bit, to calling :meth:`eval_with_gradient`
        per point. The whole batch is located at once, then one loop
        runs chunks whose size the grid sets (see the module docstring);
        every chunk gathers, contracts and stores all its rows: a point
        outside the domain reads a clamped cell's stencil, and its row
        is set to NaN afterwards, so a batch mostly outside the domain
        costs as much as one inside it. For more CPUs, evaluate slices
        on threads of your own; their results, concatenated, equal one
        call's bit for bit::

            parts = np.array_split(points, 8)
            with ThreadPoolExecutor(2) as pool:
                results = list(pool.map(interp.eval_batch, parts))
        """
        bases, u, ok = locate_points(self.grid, points, self.policy)
        n = len(ok)
        values = np.empty((n, self.components))
        gradients = np.empty((n, self.components, self.dim))
        for s in range(0, n, self._chunk):
            e = s + self._chunk
            block = _stencils(self.grid, bases[s:e])
            part = _stencil_kernel(block, u[:, s:e])
            values[s:e] = part[:, :, 0]
            gradients[s:e] = part[:, :, self._gradient_cols] / self._spacings
            del block, part  # so the next gather reuses cache-warm memory
        values[~ok] = np.nan
        gradients[~ok] = np.nan
        return BatchResult(values, gradients, ok)
