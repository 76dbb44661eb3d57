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

Module contents:
    BoundaryPolicy -- Strict / LinearGhost enum
    Axis           -- origin, spacing, count of one grid direction
    RegularGrid    -- axes + flattened multi-component samples
    ElementRef     -- index of one cell (its lowest-corner vertex)
    infer_axis     -- recover an Axis from sorted unique coordinates
    locate         -- map a physical point to (element, local coords)
    gather_neighborhoods -- the 4^dim samples around many elements at once
    neighborhood_block   -- the same for one element
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
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
            f"gap {gaps[i]!r} at index {i} deviates from uniform "
            f"spacing {spacing!r}")
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

    The grid is immutable after construction; all operations on it are
    read-only and safe for unrestricted concurrent use.
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
        vals = vals.reshape(shape)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValueError("grid samples must all be finite")
        vals = vals.copy()
        vals.flags.writeable = False
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
        self.values = vals
        # flat vertex index = index @ _strides (x fastest); _stencil holds
        # the flat offsets of the 4^dim neighborhood in sample-row order
        self._strides = np.cumprod((1,) + counts[:-1], dtype=np.int64)
        stencil = np.indices((4,) * len(axes)).reshape(len(axes), -1)[::-1]
        self._stencil = (stencil.T + NEIGHBORHOOD_OFFSETS[0]) @ self._strides
        self._base_bounds = {p: np.array(self.element_base_range(p)).T
                             for p in BoundaryPolicy}

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


def locate(grid: RegularGrid, point, policy: BoundaryPolicy):
    """Find the element containing ``point`` and its local coordinates.

    Returns ``(ElementRef, u)`` with ``u`` in the unit cell ``[0, 1]^dim``.
    A point exactly on the upper queryable boundary maps to the last valid
    element with ``u = 1``.

    Raises
    ------
    OutOfDomainError
        If the point lies outside the policy's queryable domain.
    """
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (grid.dim,):
        raise ValueError(
            f"point must have {grid.dim} coordinates, got shape {p.shape}")
    base = np.empty(grid.dim, dtype=np.int64)
    u = np.empty(grid.dim, dtype=np.float64)
    for d, (axis, (lo, hi)) in enumerate(
            zip(grid.axes, grid.element_base_range(policy))):
        cmin = axis.coordinate(lo)
        cmax = axis.coordinate(hi + 1)
        if not (cmin <= p[d] <= cmax):
            raise OutOfDomainError(
                f"coordinate {p[d]!r} on axis {d} outside queryable "
                f"range [{cmin!r}, {cmax!r}] under {policy.value}")
        b = int(np.floor((p[d] - axis.origin) / axis.spacing))
        b = min(max(b, lo), hi)
        base[d] = b
        ud = (p[d] - axis.coordinate(b)) / axis.spacing
        u[d] = min(max(ud, 0.0), 1.0)
    return ElementRef(tuple(base)), u


def gather_neighborhoods(grid: RegularGrid, bases,
                         policy: BoundaryPolicy) -> np.ndarray:
    """All-component sample neighborhoods of k elements in one fetch.

    ``bases`` is a ``(k, dim)`` integer array of element base indices.
    Returns an array of shape ``(4^dim, k, m)``: entry ``[n, i]`` holds
    the samples at grid offset ``o`` with ``n = sum_d (o_d + 1) * 4^d``
    relative to base i, for all m components. Under ``LinearGhost``,
    offsets falling one layer outside the grid are filled with
    ``2 * f(edge) - f(next-to-edge)``, axis by axis from axis 0, so a
    corner ghost extrapolates already-extrapolated layers.

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
    flat = grid._stencil[:, None] + bases @ grid._strides
    samples = np.take(grid.values.reshape(-1, grid.components), flat,
                      axis=0, mode="clip")
    if policy is BoundaryPolicy.LINEAR_GHOST:
        # under this policy the bases 0 and hi are the edge elements
        low, high = bases == lo, bases == hi
        dim = grid.dim
        block = samples.reshape((4,) * dim + samples.shape[1:])
        for d in np.flatnonzero(low.any(axis=0) | high.any(axis=0)):
            # stencil axes run t..x: grid axis d is block axis dim-1-d
            sub = np.moveaxis(block, dim - 1 - d, 0)
            at = np.flatnonzero(low[:, d])
            if at.size:
                sub[0][..., at, :] = (2.0 * sub[1][..., at, :]
                                      - sub[2][..., at, :])
            at = np.flatnonzero(high[:, d])
            if at.size:
                sub[3][..., at, :] = (2.0 * sub[2][..., at, :]
                                      - sub[1][..., at, :])
    return samples


def neighborhood_block(grid: RegularGrid, elem: ElementRef,
                       policy: BoundaryPolicy) -> np.ndarray:
    """All-component sample neighborhood of one element, ``(4^dim, m)``.

    The one-element view of :func:`gather_neighborhoods`: row ``n``
    holds the samples at grid offset ``o`` with
    ``n = sum_d (o_d + 1) * 4^d`` relative to the element base.
    """
    return gather_neighborhoods(grid, [elem.base], policy)[:, 0]
