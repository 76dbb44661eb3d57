"""Regular-grid data model: axes, sample storage, element location.

A grid is a Cartesian product of equally spaced axes (3 or 4 of them)
carrying one or more sample components per vertex. Interpolation happens
per *element* (the cell spanned by two adjacent vertices on every axis);
an element's cubic needs the 4-wide sample neighborhood around it, so the
queryable region depends on how boundaries are handled:

* ``Strict`` only admits elements whose full neighborhood exists on the
  grid; the queryable domain shrinks by one cell per side on every axis.
* ``LinearGhost`` extends the domain to the whole grid by synthesizing
  one layer of ghost samples per side from linear extrapolation of the
  two edge layers. First-order near edges, exact for linear fields.

Samples are stored once, vertex-major: one contiguous ``(vertices, m)``
array with the x index varying fastest among the vertices, which is the
layout of ``RegularGrid.values``, a read-only ``(count_last, ...,
count_first, m)`` view of it. A gather takes whole stencils of sample
rows and returns them point-major, ``(k, 4^dim, m)`` for k elements, so
each point's stencil is one contiguous block for the evaluation kernel's
per-point matrix products.

The scalar path works on Python numbers the grid precomputes: per
policy, one locate row per axis, ``(origin, spacing, lo, hi, cmin,
cmax)``, so :func:`locate` does only the per-axis float arithmetic; and
the strides, so :func:`neighborhood_block` fetches a cell whose whole
stencil lies on the grid with one ``take`` at its flat offset, the
``(4^dim, m)`` slice a gather of that one cell would return. Only
edge cells under ``LinearGhost`` go through the ghost fill of
:func:`gather_neighborhoods`.

Module contents:
    BoundaryPolicy -- Strict / LinearGhost enum
    Axis           -- origin, spacing, count of one grid direction
    RegularGrid    -- axes + vertex-major samples
    ElementRef     -- index of one cell (its lowest-corner vertex)
    infer_axis     -- recover an Axis from sorted unique coordinates
    as_coordinates -- query coordinates as float64, typed errors otherwise
    locate         -- map a physical point to (element, local coords)
    locate_points  -- the same for many points, flagging those outside
    gather_neighborhoods -- the 4^dim samples around many elements at once
    neighborhood_block   -- the same for one element
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidPointError,
    IrregularSpacingError,
    NonFiniteValueError,
    OutOfDomainError,
    TooFewPointsError,
    UnsupportedDimensionError,
)

#: Offsets of the sample neighborhood on each axis, relative to an
#: element's lowest-corner vertex.
NEIGHBORHOOD_OFFSETS = (-1, 0, 1, 2)

#: Relative tolerance used when checking that axis gaps are uniform.
SPACING_RTOL = 1e-9


class BoundaryPolicy(enum.Enum):
    """How elements near the grid boundary are treated."""

    STRICT = "strict"
    LINEAR_GHOST = "linear-ghost"


@dataclass(frozen=True)
class Axis:
    """One grid direction: ``coordinate(i) = origin + i * spacing``.

    Parameters
    ----------
    origin : float
        Physical coordinate of vertex 0.
    spacing : float
        Distance between adjacent vertices; must be positive.
    count : int
        Number of vertices; at least 4 (the cubic stencil width).
    """

    origin: float
    spacing: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "origin", float(self.origin))
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "count", int(self.count))
        if not np.isfinite(self.origin) or not np.isfinite(self.spacing):
            raise NonFiniteValueError("axis origin/spacing must be finite")
        if self.spacing <= 0:
            raise IrregularSpacingError(
                f"axis spacing must be > 0, got {self.spacing}")
        if self.count < 4:
            raise TooFewPointsError(
                f"axis needs at least 4 points, got {self.count}")

    def coordinate(self, i: int) -> float:
        return self.origin + i * self.spacing

    def coordinates(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.count)


def infer_axis(coords) -> Axis:
    """Build an Axis from strictly increasing coordinates.

    Spacing is taken as ``(last - first) / (count - 1)``; every gap must
    match it to within ``SPACING_RTOL`` relative, else the data are not a
    regular grid.
    """
    c = np.asarray(coords, dtype=np.float64)
    if c.ndim != 1 or c.size < 4:
        raise TooFewPointsError(
            f"need at least 4 coordinates to define an axis, got {c.size}")
    spacing = (c[-1] - c[0]) / (c.size - 1)
    if spacing <= 0:
        raise IrregularSpacingError("coordinates must be strictly increasing")
    gaps = np.diff(c)
    bad = np.abs(gaps - spacing) > SPACING_RTOL * spacing
    if np.any(bad):
        i = int(np.argmax(bad))
        raise IrregularSpacingError(
            f"gap {float(gaps[i])!r} at index {i} deviates from uniform "
            f"spacing {float(spacing)!r}")
    return Axis(float(c[0]), float(spacing), int(c.size))


@dataclass(frozen=True)
class ElementRef:
    """Grid index of an element's lowest-corner vertex, one per axis."""

    base: tuple

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(int(b) for b in self.base))


class RegularGrid:
    """Samples of a scalar or vector field on a regular 3D/4D grid.

    Parameters
    ----------
    axes : sequence of Axis
        One per dimension, ordered x, y, z (, t). Length 3 or 4.
    values : array_like
        Samples, either flat with layout
        ``flat[(((i_t * nc_z + i_z) * nc_y + i_y) * nc_x + i_x) * m + c]``
        (x index varying fastest among the coordinates, component last),
        or already shaped ``(count_last, ..., count_first, m)``.
    components : int, optional
        Number of field components m (default 1).
    component_names : sequence of str, optional
        Labels for CSV headers; defaults to ``f`` or ``f0, f1, ...``.

    The samples are copied once into a vertex-major store (see the
    module docstring); ``values`` is a read-only view of it. The grid is
    immutable after construction; all operations on it are read-only and
    safe for unrestricted concurrent use.
    """

    def __init__(self, axes, values, components: int = 1,
                 component_names=None):
        axes = tuple(axes)
        if len(axes) not in (3, 4):
            raise UnsupportedDimensionError(
                f"grids must be 3- or 4-dimensional, got {len(axes)} axes")
        if components < 1:
            raise ValueError(f"components must be >= 1, got {components}")
        counts = tuple(a.count for a in axes)
        shape = counts[::-1] + (components,)
        vals = np.asarray(values, dtype=np.float64)
        if vals.size != np.prod(shape):
            raise ValueError(
                f"expected {np.prod(shape)} values "
                f"({'x'.join(map(str, counts))} vertices x {components} "
                f"components), got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValueError("grid samples must all be finite")
        # the one stored copy, one row of components per vertex
        samples = vals.reshape(-1, components).copy()
        samples.flags.writeable = False
        if component_names is None:
            component_names = (("f",) if components == 1 else
                               tuple(f"f{i}" for i in range(components)))
        else:
            component_names = tuple(str(n) for n in component_names)
            if len(component_names) != components:
                raise ValueError(
                    f"need {components} component names, "
                    f"got {len(component_names)}")
        self.axes = axes
        self.components = components
        self.component_names = component_names
        self._samples = samples
        # shaped (count_last, ..., count_first, m): a view, not a copy
        self.values = samples.reshape(shape)
        # flat vertex index = index @ _strides (x fastest); _stencil holds
        # the flat offsets of the 4^dim neighborhood in sample-row order
        self._strides = np.cumprod((1,) + counts[:-1], dtype=np.int64)
        stencil = np.indices((4,) * len(axes)).reshape(len(axes), -1)[::-1]
        self._stencil = (stencil.T + NEIGHBORHOOD_OFFSETS[0]) @ self._strides
        self._base_bounds = {p: np.array(self.element_base_range(p)).T
                             for p in BoundaryPolicy}
        # for the scalar path, on Python numbers: per policy one locate
        # row per axis, (origin, spacing, lo, hi, cmin, cmax) with the
        # valid base range [lo, hi] and queryable range [cmin, cmax];
        # the strides; and the bases whose whole stencil is on the grid
        self._locate_rows = {
            p: tuple((a.origin, a.spacing, lo, hi,
                      a.coordinate(lo), a.coordinate(hi + 1))
                     for a, (lo, hi) in zip(axes, self.element_base_range(p)))
            for p in BoundaryPolicy}
        self._stride_ints = tuple(self._strides.tolist())
        self._interior = self.element_base_range(BoundaryPolicy.STRICT)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def counts(self) -> tuple:
        return tuple(a.count for a in self.axes)

    def vertex_value(self, index, component: int = 0) -> float:
        """Sample at integer vertex ``index = (i_x, i_y, i_z[, i_t])``."""
        return float(self.values[tuple(index[::-1]) + (component,)])

    def flat_values(self) -> np.ndarray:
        """Samples in the canonical flat layout (x fastest, component last)."""
        return self.values.reshape(-1)

    def element_base_range(self, policy: BoundaryPolicy):
        """Per-axis inclusive (lo, hi) of valid element base indices."""
        if policy is BoundaryPolicy.STRICT:
            return tuple((1, a.count - 3) for a in self.axes)
        return tuple((0, a.count - 2) for a in self.axes)

    def queryable_domain(self, policy: BoundaryPolicy):
        """Per-axis inclusive (min, max) physical coordinates of queries."""
        return tuple(
            (a.coordinate(lo), a.coordinate(hi + 1))
            for a, (lo, hi) in zip(self.axes, self.element_base_range(policy))
        )

    def element_counts(self, policy: BoundaryPolicy = None):
        """Number of elements per axis; valid ones only if a policy is given."""
        if policy is None:
            return tuple(a.count - 1 for a in self.axes)
        return tuple(hi - lo + 1 for lo, hi in self.element_base_range(policy))


def as_coordinates(points) -> np.ndarray:
    """``points`` as a float64 array, any shape.

    Raises
    ------
    InvalidPointError
        If the coordinates are not all real numbers: complex, text,
        None or nested to uneven depth.
    """
    try:
        p = np.asarray(points)
    except (TypeError, ValueError) as exc:
        raise InvalidPointError(
            f"coordinates must be real numbers: {exc}") from None
    if p.dtype.kind not in "biuf":
        raise InvalidPointError(
            f"coordinates must be real numbers, got dtype {p.dtype}")
    return p if p.dtype == np.float64 else p.astype(np.float64)


def locate(grid: RegularGrid, point, policy: BoundaryPolicy):
    """Find the element containing ``point`` and its local coordinates.

    Returns ``(ElementRef, u)`` with ``u`` in the unit cell ``[0, 1]^dim``.
    A point exactly on the upper queryable boundary maps to the last valid
    element with ``u = 1``. The arithmetic is that of
    :func:`locate_points`, on Python floats and the grid's precomputed
    locate rows, so both agree bit for bit.

    Raises
    ------
    DimensionMismatchError
        If the point does not have ``grid.dim`` coordinates.
    InvalidPointError
        If a coordinate is complex or not a number.
    OutOfDomainError
        If the point lies outside the policy's queryable domain.
    """
    p = as_coordinates(point)
    if p.shape != (grid.dim,):
        raise DimensionMismatchError(
            f"point must have {grid.dim} coordinates, got shape {p.shape}")
    base, u = [], []
    for d, (x, (origin, spacing, lo, hi, cmin, cmax)) in enumerate(
            zip(p.tolist(), grid._locate_rows[policy])):
        if not (cmin <= x <= cmax):
            raise OutOfDomainError(
                f"coordinate {x!r} on axis {d} outside queryable "
                f"range [{cmin!r}, {cmax!r}] under {policy.value}")
        b = min(max(math.floor((x - origin) / spacing), lo), hi)
        base.append(b)
        ud = (x - (origin + b * spacing)) / spacing
        u.append(min(max(ud, 0.0), 1.0))
    return ElementRef(tuple(base)), np.array(u)


def locate_points(grid: RegularGrid, points, policy: BoundaryPolicy):
    """Vectorised :func:`locate` for an ``(n, dim)`` array of points.

    Returns ``(bases, u, ok)``: ``(n, dim)`` element base indices, the
    ``(dim, n)`` local coordinates and an ``(n,)`` mask of the points
    inside the queryable domain. Rows of points outside it hold
    arbitrary in-range bases instead of raising.
    """
    n = points.shape[0]
    bases = np.empty((n, grid.dim), dtype=np.int64)
    u = np.empty((grid.dim, n))
    ok = np.ones(n, dtype=bool)
    for d, (a, (lo, hi)) in enumerate(
            zip(grid.axes, grid.element_base_range(policy))):
        x = points[:, d]
        ok &= (x >= a.coordinate(lo)) & (x <= a.coordinate(hi + 1))
        b = np.floor((x - a.origin) / a.spacing)
        b = np.where(np.isfinite(b), b, lo)
        b = np.clip(b, lo, hi)
        bases[:, d] = b
        u[d] = np.clip((x - (a.origin + b * a.spacing)) / a.spacing, 0.0, 1.0)
    return bases, u, ok


def gather_neighborhoods(grid: RegularGrid, bases,
                         policy: BoundaryPolicy) -> np.ndarray:
    """All-component sample neighborhoods of k elements in one fetch.

    ``bases`` is a ``(k, dim)`` integer array of element base indices.
    Returns an array of shape ``(k, 4^dim, m)``: entry ``[i, n, c]`` holds
    component c of the sample at grid offset ``o`` with
    ``n = sum_d (o_d + 1) * 4^d`` relative to base i. Under
    ``LinearGhost``, offsets falling one layer outside the grid are
    filled with ``2 * f(edge) - f(next-to-edge)``, axis by axis from
    axis 0, so a corner ghost extrapolates already-extrapolated layers.

    Raises
    ------
    IndexError
        If any base lies outside ``grid.element_base_range(policy)``.
    """
    bases = np.asarray(bases, dtype=np.int64)
    lo, hi = grid._base_bounds[policy]
    bad = (bases < lo) | (bases > hi)
    if bad.any():
        first = bases[bad.any(axis=-1)][0]
        raise IndexError(
            f"element base {tuple(first.tolist())} outside valid range "
            f"under {policy.value}")
    # every stencil entry is read at its flat offset from the base; a
    # ghost entry reads whatever in-range sample its clipped offset hits
    # and is overwritten from real samples below
    flat = (bases @ grid._strides)[:, None] + grid._stencil
    samples = np.take(grid._samples, flat, axis=0, mode="clip")
    if policy is BoundaryPolicy.LINEAR_GHOST:
        # under this policy the bases 0 and hi are the edge elements
        low, high = bases == lo, bases == hi
        dim = grid.dim
        block = samples.reshape(samples.shape[:1] + (4,) * dim
                                + samples.shape[-1:])
        for d in np.flatnonzero(low.any(axis=0) | high.any(axis=0)):
            # stencil axes run t..x: grid axis d is block axis dim-d
            sub = np.moveaxis(block, dim - d, 0)
            at = np.flatnonzero(low[:, d])
            if at.size:
                sub[0][at] = 2.0 * sub[1][at] - sub[2][at]
            at = np.flatnonzero(high[:, d])
            if at.size:
                sub[3][at] = 2.0 * sub[2][at] - sub[1][at]
    return samples


def neighborhood_block(grid: RegularGrid, elem: ElementRef,
                       policy: BoundaryPolicy) -> np.ndarray:
    """All-component sample neighborhood of one element, ``(4^dim, m)``.

    The one-element slice of :func:`gather_neighborhoods`:
    row ``n`` holds the samples at grid offset ``o`` with
    ``n = sum_d (o_d + 1) * 4^d`` relative to the element base. An
    element whose whole stencil lies on the grid (every valid one under
    ``Strict``, the interior ones under ``LinearGhost``) is fetched with
    one ``np.take`` at its flat offset; the others go through
    :func:`gather_neighborhoods`, which fills ghosts and rejects bases
    outside the valid range.

    Raises
    ------
    DimensionMismatchError
        If the element base does not have ``grid.dim`` entries.
    IndexError
        If the base lies outside ``grid.element_base_range(policy)``.
    """
    base = elem.base
    if len(base) != grid.dim:
        raise DimensionMismatchError(
            f"element base must have {grid.dim} entries, got {base}")
    if all(lo <= b <= hi for b, (lo, hi) in zip(base, grid._interior)):
        offset = sum(b * s for b, s in zip(base, grid._stride_ints))
        return grid._samples.take(grid._stencil + offset, 0)
    return gather_neighborhoods(grid, [base], policy)[0]
