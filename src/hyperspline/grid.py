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

Samples are stored once, vertex-major, padded by that ghost layer on
every side: one contiguous ``(vertices, m)`` array over the
``(count_last + 2, ..., count_first + 2)`` padded vertices, x index
fastest. The grid fills the ghosts when it is built, so a policy only
decides which element bases are valid; ``Strict`` simply never reads
them. ``RegularGrid.values`` is the read-only ``(count_last, ...,
count_first, m)`` inner view of the store. Along x, the 4 vertices
of a stencil row and their m components sit side by side in the store,
32 * m contiguous bytes: an *x-run*. Both gathers copy whole stencils
out of one read-only strided view of the store whose items are x-runs,
one ``np.void`` of 32 * m bytes each, ``(base_last, ..., base_first,
4, ..., 4)`` with a window axis per slow axis (dim - 1 of them). The
grid builds it with itself, and it holds every stencil in place at no
memory cost: ``neighborhood_block`` copies one cell a caller names,
checked, and the unchecked ``_stencils`` the cells of the bases
``locate_points`` returns. Copying whole x-runs moves the same bytes in
the same order as copying the stencil's floats one by one, in
4^(dim-1) items a point instead of 4^dim * m. Viewed as float64, the
copy is point-major, ``(k, 4^dim, m)`` for k elements, so each point's
stencil is one contiguous block for the evaluation kernel's per-point
matrix products; no index array is built.

Which bases a policy admits is decided once, in the grid's region
table: per policy one row of Python numbers per axis, ``(origin,
spacing, lo, hi, cmin, cmax)``, the valid bases ``[lo, hi]`` and the
coordinates ``[cmin, cmax]`` they cover. The domain methods, both
locates and the checked gather read it; :func:`locate_points` in one
pass over a ``(dim, n)`` copy of the points. Each of them takes a
policy as a ``BoundaryPolicy`` or its value (``"strict"``,
``"linear-ghost"``), as ``Interpolator`` does; the table is keyed by
the member, so only a query given a value converts it.

Module contents:
    BoundaryPolicy -- Strict / LinearGhost enum
    Axis           -- origin, spacing, count of one grid direction
    RegularGrid    -- axes + vertex-major samples with ghost layers
    ElementRef     -- index of one cell (its lowest-corner vertex)
    infer_axis     -- recover an Axis from sorted unique coordinates
    is_integer     -- whether an argument is an integer (bools are not)
    is_real        -- whether an argument is a real number (bools are not)
    lattice        -- the vertex coordinates of axes, in sample order
    as_policy      -- a BoundaryPolicy from a member or its value
    as_component_names -- component labels a CSV header carries back
    as_coordinates -- query coordinates as float64, typed errors otherwise
    locate         -- map a physical point to (element, local coords)
    locate_points  -- the same for many points, flagging those outside
    neighborhood_block -- the 4^dim samples around one element, checked
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    ElementOutOfRangeError,
    InvalidArgumentError,
    InvalidPointError,
    IrregularSpacingError,
    NonFiniteValueError,
    OutOfDomainError,
    TooFewPointsError,
    UnsupportedDimensionError,
    shown,
)

#: Coordinate column names of grid, points and result CSV files, per axis.
AXIS_NAMES = ("x", "y", "z", "t")


def result_header(dim: int, component_names) -> list:
    """The columns of a results CSV: coordinates, values, gradients
    ``d<component>_d<axis>`` and ``error``."""
    axes = AXIS_NAMES[:dim]
    return [*axes, *component_names,
            *(f"d{c}_d{a}" for c in component_names for a in axes), "error"]


#: Grid dimensions the package supports.
SUPPORTED_DIMS = (3, 4)

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

    Raises IrregularSpacingError unless the spacing is positive and
    wider than the float64 rounding of the vertex coordinates, so that
    no two vertices coincide.
    """

    origin: float
    spacing: float
    count: int

    def __post_init__(self):
        try:
            if not (is_real(self.origin) and is_real(self.spacing)):
                raise TypeError  # text and bools would pass float()
            origin, spacing = float(self.origin), float(self.spacing)
        except (TypeError, OverflowError):
            raise InvalidArgumentError(
                f"axis origin and spacing must be real numbers, got "
                f"{shown(self.origin)} and {shown(self.spacing)}") from None
        if not is_integer(self.count):
            raise InvalidArgumentError(
                f"axis count must be an integer, got {shown(self.count)}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "count", int(self.count))
        if not np.isfinite(self.origin) or not np.isfinite(self.spacing):
            raise NonFiniteValueError("axis origin/spacing must be finite")
        if self.spacing <= 0:
            raise IrregularSpacingError(
                f"axis spacing must be > 0, got {self.spacing}")
        if self.count < 4:
            raise TooFewPointsError(
                f"axis needs at least 4 points, got {shown(self.count)}")
        try:
            last = self.origin + (self.count - 1) * self.spacing
        except OverflowError:  # a count past the float range
            last = math.inf
        if not math.isfinite(last):
            raise NonFiniteValueError(
                f"axis from {self.origin!r} with spacing {self.spacing!r} "
                f"overflows at its last vertex")
        # adjacent vertices differ by the spacing less the rounding of
        # two products i * spacing and of their two sums with the origin;
        # within that rounding, vertices may coincide in float64
        rounding = (math.ulp((self.count - 1) * self.spacing)
                    + math.ulp(max(abs(self.origin), abs(last))))
        if self.spacing <= rounding:
            raise IrregularSpacingError(
                f"axis spacing {self.spacing!r} is within float64 rounding "
                f"({rounding!r}) of the coordinates from {self.origin!r} "
                f"to {last!r}, so its vertices may coincide")

    def coordinate(self, i: int) -> float:
        return self.origin + i * self.spacing

    def coordinates(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.count)


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; bools are not."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool))


def is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy real number; bools are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def lattice(axes) -> np.ndarray:
    """Coordinates of every vertex of the grid the axes span, shape
    ``(vertices, dim)``, in sample order (x index fastest)."""
    mesh = np.meshgrid(*[a.coordinates() for a in axes[::-1]], indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh[::-1]], axis=1)


def infer_axis(coords) -> Axis:
    """Build an Axis from strictly increasing coordinates.

    Spacing is taken as ``(last - first) / (count - 1)``; every gap must
    match it to within ``SPACING_RTOL`` relative plus the rounding of
    the coordinates themselves (two float64 ulps of the largest
    magnitude), else the data are not a regular grid. The rounding term
    admits an axis far from zero with fine steps, such as epoch seconds
    in milliseconds, as ``write_grid_csv`` writes it.

    Raises
    ------
    InvalidArgumentError
        If the coordinates are not real numbers.
    DimensionMismatchError
        If they are not one-dimensional.
    TooFewPointsError, NonFiniteValueError, IrregularSpacingError
        If there are fewer than 4, one is NaN or infinite, or they are
        not an increasing arithmetic progression.
    """
    try:
        c = np.asarray(coords)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(
            f"axis coordinates must be real numbers: {exc}") from None
    if c.dtype.kind not in "iuf":
        raise InvalidArgumentError(
            f"axis coordinates must be real numbers, got dtype {c.dtype}")
    if c.ndim != 1:
        raise DimensionMismatchError(
            f"axis coordinates must be one-dimensional, got shape {c.shape}")
    if c.size < 4:
        raise TooFewPointsError(
            f"need at least 4 coordinates to define an axis, got {c.size}")
    c = c.astype(np.float64)
    if not np.all(np.isfinite(c)):
        raise NonFiniteValueError("axis coordinates must be finite")
    spacing = (c[-1] - c[0]) / (c.size - 1)
    if spacing <= 0:
        raise IrregularSpacingError("coordinates must be strictly increasing")
    gaps = np.diff(c)
    tol = SPACING_RTOL * spacing + 2 * np.spacing(max(abs(c[0]), abs(c[-1])))
    bad = np.abs(gaps - spacing) > tol
    if np.any(bad):
        i = int(np.argmax(bad))
        raise IrregularSpacingError(
            f"gap {float(gaps[i])!r} at index {i} deviates from uniform "
            f"spacing {float(spacing)!r}")
    return Axis(float(c[0]), float(spacing), int(c.size))


@dataclass(frozen=True)
class ElementRef:
    """Grid index of an element's lowest-corner vertex, one per axis;
    InvalidArgumentError unless ``base`` is a sequence of integers."""

    base: tuple

    def __post_init__(self):
        try:
            base = tuple(map(operator.index, self.base))
        except TypeError:
            raise InvalidArgumentError(
                f"element base must be a sequence of integers, "
                f"got {shown(self.base)}") from None
        object.__setattr__(self, "base", base)

    @classmethod
    def _trusted(cls, base: tuple) -> "ElementRef":
        """An ElementRef of ``base``, a tuple of Python ints, unchecked:
        for bases :func:`locate` has just computed, which need no
        ``operator.index`` pass. Equal to ``ElementRef(base)`` in every
        respect."""
        elem = object.__new__(cls)
        object.__setattr__(elem, "base", base)
        return elem


class RegularGrid:
    """Samples of a scalar or vector field on a regular 3D/4D grid.

    Parameters
    ----------
    axes : sequence of Axis
        One per dimension, ordered x, y, z (, t). Length 3 or 4.
    values : array_like
        Real, finite samples in one of these layouts, x index varying
        fastest among the coordinates and component last:

        * flat, ``flat[(((i_t * nc_z + i_z) * nc_y + i_y) * nc_x + i_x)
          * m + c]``;
        * ``(vertices, m)``, one row per vertex in that order;
        * ``(count_last, ..., count_first, m)``;
        * ``(count_last, ..., count_first)``, when m is 1.

        Any other shape raises DimensionMismatchError: an x-first
        ``(count_first, ..., count_last)`` array would otherwise be
        read transposed.
    components : int, optional
        Number of field components m (default 1).
    component_names : str or sequence of str, optional
        Labels for CSV headers, a lone string naming the one component;
        defaults to ``f`` or ``f0, f1, ...``.

    The samples are copied once into a vertex-major store (see the
    module docstring); ``values`` is a read-only view of it. The grid is
    immutable after construction; all operations on it are read-only and
    safe to call from any number of threads at once.
    """

    def __init__(self, axes, values, components: int = 1,
                 component_names=None):
        axes = tuple(axes) if np.iterable(axes) else (axes,)
        if not all(isinstance(a, Axis) for a in axes):
            raise InvalidArgumentError(
                f"axes must be a sequence of Axis, got {shown(axes)}")
        if len(axes) not in SUPPORTED_DIMS:
            raise UnsupportedDimensionError(
                f"grids must be 3- or 4-dimensional, got {len(axes)} axes")
        if not is_integer(components) or components < 1:
            raise InvalidArgumentError(
                f"components must be a positive integer, "
                f"got {shown(components)}")
        components = int(components)
        counts = tuple(a.count for a in axes)
        shape = counts[::-1] + (components,)
        # math.prod: np.prod wraps in int64, and a wrapped product of
        # huge axes can equal a small sample count
        vertices = math.prod(counts)
        try:
            vals = np.asarray(values)
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(
                f"grid samples must be real numbers: {exc}") from None
        if vals.dtype.kind not in "biuf":
            raise InvalidArgumentError(
                f"grid samples must be real numbers, got dtype {vals.dtype}")
        vals = vals.astype(np.float64, copy=False)
        if vals.size != vertices * components:
            raise DimensionMismatchError(
                f"expected {shown(vertices * components)} values "
                f"({'x'.join(map(str, counts))} vertices x "
                f"{shown(components)} components), got {vals.size}")
        layouts = [(vals.size,), (vertices, components), shape]
        if components == 1:
            layouts.append(shape[:-1])
        if vals.shape not in layouts:
            raise DimensionMismatchError(
                f"grid samples of shape {vals.shape} are in no accepted "
                f"layout: flat or one of {layouts[1:]}")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValueError("grid samples must all be finite")
        # the one stored copy, padded by one ghost layer per side; ghosts
        # extrapolate the two edge layers, axis by axis from x, so a
        # corner ghost extrapolates already-extrapolated layers and every
        # ghost is written last from final values (finite samples near
        # the float64 limit may give inf or NaN ghosts)
        dim, inner = len(axes), (slice(1, -1),) * len(axes)
        padded = np.empty(tuple(c + 2 for c in counts[::-1]) + (components,))
        padded[inner] = vals.reshape(shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for d in range(dim):
                sub = np.moveaxis(padded, dim - 1 - d, 0)
                sub[0] = 2.0 * sub[1] - sub[2]
                sub[-1] = 2.0 * sub[-2] - sub[-3]
        padded.flags.writeable = False
        if component_names is None:
            component_names = (["f"] if components == 1 else
                               [f"f{i}" for i in range(components)])
        component_names = as_component_names(component_names, components)
        self.axes = axes
        self.components = components
        self.component_names = component_names
        self._samples = padded.reshape(-1, components)
        # the real samples, shaped (count_last, ..., count_first, m)
        self.values = padded[inner]
        # every stencil in place, a read-only view of the store whose
        # items are x-runs: item [b_last, ..., b_first, o_last, ..., o_y]
        # holds the 4 x-vertices from b_first at padded slow-axis
        # vertices b + o, offsets o - 1 from element base b, with their
        # m components, 32 * m bytes
        runs = np.ndarray(padded.shape[:-2] + (counts[0] - 1,),
                          np.dtype((np.void, 32 * components)), padded,
                          strides=padded.strides[:-1])
        self._windows = np.lib.stride_tricks.sliding_window_view(
            runs, (4,) * (dim - 1), axis=tuple(range(dim - 1)))
        # the region table, the one statement of the boundary rule: Strict
        # admits the bases one cell in from each side, whose neighborhoods
        # are all real samples; LinearGhost, reading ghosts, admits all.
        self._regions = {}
        for p, i in ((BoundaryPolicy.STRICT, 1),
                     (BoundaryPolicy.LINEAR_GHOST, 0)):
            self._regions[p] = tuple(
                (a.origin, a.spacing, i, a.count - 2 - i,
                 a.coordinate(i), a.coordinate(a.count - 1 - i))
                for a in axes)

    def __reduce__(self):
        # rebuilt from its samples: pickling the stencil view would write
        # out 4^dim samples per cell
        return (type(self), (self.axes, self.values, self.components,
                              self.component_names))

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def counts(self) -> tuple:
        return tuple(a.count for a in self.axes)

    def vertex_value(self, index, component: int = 0) -> float:
        """Sample at integer vertex ``index = (i_x, i_y, i_z[, i_t])``.

        Raises DimensionMismatchError unless ``index`` has one entry per
        axis, and InvalidArgumentError for an entry or ``component``
        that is not an integer (bools are not) in ``[0, count)``: a
        negative one does not count from the end.
        """
        try:
            index = tuple(index)
        except TypeError:
            raise InvalidArgumentError(
                f"vertex index must be a sequence of {self.dim} integers, "
                f"got {shown(index)}") from None
        if len(index) != self.dim:
            raise DimensionMismatchError(
                f"vertex index must have {self.dim} entries, "
                f"got {shown(index)}")
        limits = self.counts + (self.components,)
        for d, (i, n) in enumerate(zip(index + (component,), limits)):
            if not (is_integer(i) and 0 <= i < n):
                what = (f"vertex index {shown(i)} on axis {d}"
                        if d < self.dim else f"component {shown(i)}")
                raise InvalidArgumentError(
                    f"{what} must be an integer in [0, {n})")
        return float(self.values[index[::-1] + (component,)])

    def _rows(self, policy):
        """The region table's rows for ``policy``, a BoundaryPolicy or its
        value; InvalidArgumentError for anything else."""
        try:
            return self._regions[policy]
        except (KeyError, TypeError):  # TypeError: unhashable
            return self._regions[as_policy(policy)]

    def element_base_range(self, policy: BoundaryPolicy):
        """Per-axis inclusive (lo, hi) of valid element base indices."""
        return tuple(row[2:4] for row in self._rows(policy))

    def queryable_domain(self, policy: BoundaryPolicy):
        """Per-axis inclusive (min, max) physical coordinates of queries."""
        return tuple(row[4:] for row in self._rows(policy))

    def element_counts(self, policy: BoundaryPolicy = None):
        """Number of elements per axis; valid ones only if a policy is given
        (all of them are valid under LinearGhost)."""
        rows = self._rows(BoundaryPolicy.LINEAR_GHOST if policy is None
                          else policy)
        return tuple(hi - lo + 1 for _, _, lo, hi, _, _ in rows)


def as_policy(policy) -> BoundaryPolicy:
    """``policy`` as a BoundaryPolicy, given a member or its value;
    InvalidArgumentError for anything else."""
    try:
        return BoundaryPolicy(policy)
    except ValueError:
        raise InvalidArgumentError(
            f"unknown boundary policy {shown(policy)}, expected one of "
            f"{[p.value for p in BoundaryPolicy]}") from None


def as_component_names(names, components: int) -> tuple:
    """``names`` as a tuple of ``components`` strings; InvalidArgumentError
    unless ``names`` is a sequence of that many labels (a lone string is
    one label), each one text that a UTF-8 file can hold (a lone
    surrogate cannot) and that a CSV header carries back unchanged: not
    empty, no comma, double quote or line break, no leading or trailing
    whitespace; and once only in a :func:`result_header`: no axis name
    (x, y, z, t), which a header would read as a coordinate column, no
    ``error``, ``d<c>_d<axis>`` or repeat."""
    try:
        labels = ((names,) if isinstance(names, str)
                  else tuple(map(str, names)) if np.iterable(names) else ())
    except ValueError:  # an integer past the 4,300-digit string limit
        raise InvalidArgumentError(
            f"component names must convert to text, "
            f"got {shown(names)}") from None
    if len(labels) != components:
        raise InvalidArgumentError(
            f"need {shown(components)} component names, got {shown(names)}")
    try:
        "".join(labels).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidArgumentError(
            f"component names must be UTF-8 text, got {shown(names)} "
            f"({exc.reason})") from None
    # the results columns around the labels, then each label as it passes
    header, n = result_header(len(AXIS_NAMES), labels), len(AXIS_NAMES)
    taken = {*header[:n], *header[n + len(labels):]}
    for name in labels:
        if (not name or name != name.strip() or name in taken
                or any(c in name for c in ',"\r\n')):
            raise InvalidArgumentError(
                f"component name {shown(name)} would not read back from a CSV "
                f"header: it is empty, holds a comma, quote, line break or "
                f"surrounding space, repeats a name, or is an axis name, "
                f"'error' or another component's gradient column")
        taken.add(name)
    return labels


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
    :func:`locate_points`, on Python floats and the rows of the grid's
    region table for ``policy``, so both agree bit for bit.

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
    rows = grid._rows(policy)
    if p.shape != (len(rows),):
        raise DimensionMismatchError(
            f"point must have {len(rows)} coordinates, got shape {p.shape}")
    base, u = [], []
    for d, (x, (origin, spacing, lo, hi, cmin, cmax)) in enumerate(
            zip(p.tolist(), rows)):
        if not (cmin <= x <= cmax):
            raise OutOfDomainError(
                f"coordinate {x!r} on axis {d} outside queryable "
                f"range [{cmin!r}, {cmax!r}] under "
                f"{as_policy(policy).value}")
        b = min(max(math.floor((x - origin) / spacing), lo), hi)
        base.append(b)
        ud = (x - (origin + b * spacing)) / spacing
        u.append(min(max(ud, 0.0), 1.0))
    return ElementRef._trusted(tuple(base)), np.array(u)


@np.errstate(over="ignore")
def locate_points(grid: RegularGrid, points, policy: BoundaryPolicy):
    """Vectorised :func:`locate` for ``(n, dim)`` points.

    Returns ``(bases, u, ok)``: ``(n, dim)`` element base indices, the
    ``(dim, n)`` local coordinates and an ``(n,)`` mask of the points
    inside the queryable domain. Every base, NaN points' included, is
    clamped into ``grid.element_base_range(policy)``, so it can be
    gathered unchecked; a point far outside may overflow to inf silently,
    as the mask flags it. One pass over a ``(dim, n)`` copy of the
    points, each field of the region table's rows a ``(dim, 1)`` column.

    Raises
    ------
    DimensionMismatchError
        If ``points`` is not ``(n, grid.dim)``.
    InvalidPointError
        If a coordinate is complex or not a number.
    """
    points = as_coordinates(points)
    if points.ndim != 2 or points.shape[1] != grid.dim:
        raise DimensionMismatchError(
            f"points must have shape (n, {grid.dim}), got {points.shape}")
    x = np.ascontiguousarray(points.T)
    origin, spacing, lo, hi, cmin, cmax = (
        np.array(grid._rows(policy)).T[..., None])
    ok = ((x >= cmin) & (x <= cmax)).all(axis=0)
    b = np.floor((x - origin) / spacing)
    b = np.where(np.isfinite(b), b, lo)
    # np.clip's bits, without its dispatch; the bound goes first, as
    # np.maximum(-0.0, 0.0) would return +0.0 where np.clip keeps -0.0
    b = np.minimum(hi, np.maximum(lo, b))
    u = np.minimum(1.0, np.maximum(0.0, (x - (origin + b * spacing))
                                   / spacing))
    return b.T.astype(np.int64), u, ok


def _stencils(grid: RegularGrid, bases: np.ndarray) -> np.ndarray:
    """Unchecked sample neighborhoods of k elements, ``(k, 4^dim, m)``.

    ``bases`` must be a ``(k, dim)`` integer array of element bases
    within the policy's valid range, as :func:`locate_points` returns
    them; nothing is checked. Entry ``[i, n, c]`` holds component c of
    the sample at grid offset ``o`` with ``n = sum_d (o_d + 1) * 4^d``
    relative to base i. Offsets one layer outside the grid read the
    ghost samples the grid was built with, which only ``LinearGhost``
    bases reach. One indexing of the grid's stencil view with the bases
    copies the stencils out, 4^(dim-1) x-runs each, and viewing the
    copy as float64 gives the block; no index array is built.
    """
    return grid._windows[tuple(bases.T[::-1])].view(np.float64).reshape(
        len(bases), 4 ** grid.dim, grid.components)


def neighborhood_block(grid: RegularGrid, elem: ElementRef,
                       policy: BoundaryPolicy) -> np.ndarray:
    """All-component sample neighborhood of one element, ``(4^dim, m)``.

    The checked gather, for a cell a caller names: a range check on
    Python ints against the policy's region table, then a copy of the
    base's 4^(dim-1) x-runs out of the grid's stencil view, viewed as
    float64: the row order and ghost samples of :func:`_stencils`.

    Raises
    ------
    InvalidArgumentError
        If ``elem`` is not an :class:`ElementRef`.
    DimensionMismatchError
        If the element base does not have ``grid.dim`` entries.
    ElementOutOfRangeError
        If the base lies outside ``grid.element_base_range(policy)``.
    """
    if not isinstance(elem, ElementRef):
        raise InvalidArgumentError(
            f"element must be an ElementRef, got {shown(elem)}")
    base, rows = elem.base, grid._rows(policy)
    if len(base) != len(rows):
        raise DimensionMismatchError(
            f"element base must have {len(rows)} entries, "
            f"got {shown(base)}")
    for b, row in zip(base, rows):
        if not row[2] <= b <= row[3]:
            raise ElementOutOfRangeError(
                f"element base {shown(base)} outside valid range "
                f"under {as_policy(policy).value}")
    # the float64 array over the copied x-runs, made in one call: fewer
    # array objects than a view and a reshape, on the scalar path
    return np.ndarray((4 ** len(rows), grid.components), np.float64,
                      grid._windows[base[::-1]].copy())
