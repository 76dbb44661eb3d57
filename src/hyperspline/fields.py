"""Analytic test fields, the brute-force coefficient oracle, validation
studies, and the release checks.

Everything here exists to check the interpolator against ground truth:
fields with known values *and* known gradients, an independent
dense-solve route to the element coefficients, scans that measure the
continuity and accuracy the interpolant is supposed to deliver, and
the release checks that ``hyperspline validate`` and the acceptance
tests both run.

A field takes arrays of points: ``value(points)`` maps a ``(..., dim)``
array to ``(..., m)`` and ``gradient(points)`` to ``(..., m, dim)``, so
a grid, a probe set or a workload is one call, and one ``(dim,)`` point
gives ``(m,)`` and ``(m, dim)``. For every field built here, an array
call equals the per-point calls row for row, bit for bit.

Every polynomial here is evaluated one way: the constant, linear,
multilinear and tensor-polynomial fields, and the oracle's element
polynomial in :func:`check_fused_oracle`, are coefficient tensors whose
axis d holds the powers of coordinate d, reduced by ``_polynomial``
with Horner's rule along each axis in turn.

Module contents:
    AnalyticField        -- array value + gradient callables with a self-check
    constant_field, linear_field, multilinear_field,
    tensor_polynomial_field, trig_product_field, quadrupole_field
                         -- field builders
    sample               -- evaluate a field on a grid
    oracle_coefficients  -- dense-solve route to element coefficients
    convergence_study    -- empirical accuracy order under refinement, as
                            metrics: order, errors, spacings
    catmull_rom_1d       -- reference 1-d cubic through 4 uniform samples
    check_*              -- the release checks, each -> (ok, metrics)
    release_checks       -- the checks ``hyperspline validate`` runs, in order
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from . import operators
from .errors import DimensionMismatchError, InvalidArgumentError, shown
from .grid import (SUPPORTED_DIMS, Axis, BoundaryPolicy, ElementRef,
                   RegularGrid, is_integer, lattice, neighborhood_block)
from .interpolator import Interpolator
from .operators import operator_is_exact


@dataclass(frozen=True)
class AnalyticField:
    """A field with analytically known value and gradient.

    ``value(points)`` maps a ``(..., dim)`` array of points to
    ``(..., m)`` and ``gradient(points)`` to ``(..., m, dim)``; a single
    ``(dim,)`` point gives ``(m,)`` and ``(m, dim)``. The two must be
    consistent: construction checks the shapes and the gradient against
    central finite differences at three points, in three calls whatever
    ``dim`` is, and refuses mismatched pairs or failing callables.
    """

    dim: int
    components: int
    value: callable
    gradient: callable
    descriptor: str
    check_box: tuple = field(default=((0.0, 1.0),), repr=False)

    def __post_init__(self):
        m, dim = self.components, self.dim
        rng = np.random.default_rng(17)
        box = self.check_box
        if len(box) == 1:
            box = box * dim
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        h = 1e-6 * np.max(hi - lo)
        p = rng.uniform(lo + 2 * h, hi - 2 * h, size=(3, dim))
        # value at p + h e_d (row 0) and p - h e_d (row 1) for every axis d
        steps = np.array([h, -h])[:, None, None] * np.eye(dim)
        try:
            v, g, near = (np.asarray(f(x), dtype=np.float64) for f, x in (
                (self.value, p), (self.gradient, p),
                (self.value, p[:, None, None] + steps)))
        except Exception as exc:  # such as a field written for one point
            raise InvalidArgumentError(
                f"field '{self.descriptor}' failed on an array of points: "
                f"{type(exc).__name__}: {exc}") from exc
        want = (3, m), (3, m, dim), (3, 2, dim, m)
        if (v.shape, g.shape, near.shape) != want:
            raise InvalidArgumentError(
                f"field '{self.descriptor}' returned shapes {v.shape} / "
                f"{g.shape} / {near.shape}, expected "
                f"{' / '.join(map(str, want))}")
        fd = ((near[:, 0] - near[:, 1]) / (2 * h)).swapaxes(1, 2)
        bad = np.abs(fd - g) > 1e-4 * np.maximum(np.abs(g), 1.0)
        if np.any(bad):
            raise InvalidArgumentError(
                f"field '{self.descriptor}' gradient disagrees with finite "
                f"differences on axis {int(np.argmax(bad.any(axis=(0, 1))))}")


def _polynomial(coeffs: np.ndarray, p, axis=None) -> np.ndarray:
    """The sum of ``coeffs[k] * prod_d p[..., d] ** k[d]`` at each point of
    ``p``, ``(..., dim) -> (...)``, or its partial along ``axis``: Horner's
    rule along each axis of ``coeffs``, last first. Only elementwise
    products and sums, so a point's result has the same bits in any batch."""
    p = np.asarray(p, dtype=np.float64)
    acc = coeffs
    for d in range(coeffs.ndim - 1, -1, -1):
        # acc's last axis is coeffs' axis d, after any batch axes
        x = p[..., d].reshape(p.shape[:-1] + (1,) * d)
        c = [acc[..., j] for j in range(coeffs.shape[d])]
        if d == axis:  # the partial's coefficients, j * c[j] from j = 1
            c = [j * cj for j, cj in enumerate(c)][1:]
        acc = np.zeros(p.shape[:-1] + coeffs.shape[:d])
        for cj in c[::-1]:
            acc = acc * x + cj
    return acc


def _polynomial_field(coeffs: np.ndarray, descriptor: str,
                      check_box=((0.0, 1.0),)) -> AnalyticField:
    """The scalar field of the coefficient tensor ``coeffs``, whose axis
    d holds the powers of coordinate d (:func:`_polynomial`)."""
    dim = coeffs.ndim
    return AnalyticField(
        dim, 1,
        lambda p: _polynomial(coeffs, p)[..., None],
        lambda p: np.stack([_polynomial(coeffs, p, d) for d in range(dim)],
                           axis=-1)[..., None, :],
        descriptor, check_box)


def constant_field(dim: int, value: float = 5.0) -> AnalyticField:
    """``value`` everywhere: a coefficient tensor of shape (1,) * dim."""
    return _polynomial_field(np.full((1,) * dim, float(value)),
                             f"constant {value}")


def linear_field(dim: int, coeffs=None, offset: float = 0.0) -> AnalyticField:
    """``offset + coeffs . p``, ``coeffs`` 1..dim by default: a
    coefficient tensor of shape (2,) * dim, ``offset`` at the origin and
    ``coeffs[d]`` at the unit index of axis d. Raises
    DimensionMismatchError unless ``coeffs`` has ``dim`` entries."""
    if coeffs is None:
        coeffs = np.arange(1, dim + 1, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (dim,):
        raise DimensionMismatchError(
            f"a {dim}-dimensional linear field takes {dim} coefficients, "
            f"got shape {coeffs.shape}")
    tensor = np.zeros((2,) * dim)
    tensor[(0,) * dim] = offset
    tensor[tuple(np.eye(dim, dtype=int))] = coeffs  # row d: axis d's unit
    return _polynomial_field(tensor, f"linear {coeffs.tolist()} + {offset}")


def multilinear_field(dim: int) -> AnalyticField:
    """The product of the coordinates: a coefficient tensor of shape
    (2,) * dim with 1 at (1,) * dim."""
    tensor = np.zeros((2,) * dim)
    tensor[(1,) * dim] = 1.0
    return _polynomial_field(tensor, "multilinear product",
                             check_box=((0.5, 2.0),))


def tensor_polynomial_field(dim: int, degree: int,
                            rng: np.random.Generator) -> AnalyticField:
    """Random polynomial with per-axis degree <= ``degree``.

    Coefficients are drawn uniformly from [-1, 1] over the full exponent
    box {0..degree}^dim. Degree 2 is inside the interpolant's exactness
    class; degree 3 is deliberately outside it (centered differences
    misestimate cubic slopes). Raises InvalidArgumentError unless
    ``degree`` is an integer >= 0.
    """
    if not is_integer(degree) or degree < 0:
        raise InvalidArgumentError(
            f"degree must be an integer >= 0, got {shown(degree)}")
    return _polynomial_field(
        rng.uniform(-1.0, 1.0, size=(degree + 1,) * dim),
        f"tensor polynomial, per-axis degree {degree}")


def trig_product_field(dim: int) -> AnalyticField:
    """Smooth product of sines/cosines with incommensurate frequencies."""
    freqs = np.array([1.3, 0.9, 1.1, 0.7])[:dim]
    first = np.arange(dim) == 0  # sin along x, cos along the other axes

    def factors(p):
        """Each axis's factor and its derivative, both ``(..., dim)``."""
        x = freqs * np.asarray(p, dtype=np.float64)
        s, c = np.sin(x), np.cos(x)
        return np.where(first, s, c), freqs * np.where(first, c, -s)

    def product(terms):  # over the last axis, in axis order
        return reduce(np.multiply, np.moveaxis(terms, -1, 0))

    def value(p):
        return product(factors(p)[0])[..., None]

    def gradient(p):
        f, df = factors(p)
        # row d of the (dim, dim) terms: the factors, axis d's differentiated
        return product(np.where(np.eye(dim, dtype=bool), df[..., None, :],
                                f[..., None, :]))[..., None, :]

    return AnalyticField(dim, 1, value, gradient, "trig product")


def quadrupole_field() -> AnalyticField:
    """Time-modulated quadrupole-like vector field (dim 4, m = 3).

    Transverse gradient field with a soft axial envelope and sinusoidal
    time modulation; the z component keeps the field divergence-looking
    without pretending to physical accuracy.
    """
    def parts(p):
        x, y, z, t = np.moveaxis(np.asarray(p, dtype=np.float64), -1, 0)
        g = 1.0 + 0.5 * np.sin(1.1 * t)
        dg = 0.55 * np.cos(1.1 * t)
        w = np.exp(-0.25 * z * z)
        dw = -0.5 * z * w
        return x, y, z, g, dg, w, dw

    def value(p):
        x, y, z, g, dg, w, dw = parts(p)
        return np.stack([g * x * w, -g * y * w,
                         -0.5 * g * (x * x - y * y) * dw], axis=-1)

    def gradient(p):
        x, y, z, g, dg, w, dw = parts(p)
        ddw = (-0.5 + 0.25 * z * z) * w  # d(dw)/dz
        zero = np.zeros_like(x)
        return np.stack([
            g * w, zero, g * x * dw, dg * x * w,
            zero, -g * w, -g * y * dw, -dg * y * w,
            -g * x * dw, g * y * dw, -0.5 * g * (x * x - y * y) * ddw,
            -0.5 * dg * (x * x - y * y) * dw,
        ], axis=-1).reshape(x.shape + (3, 4))

    return AnalyticField(4, 3, value, gradient, "time-varying quadrupole",
                         check_box=((-1.5, 1.5),))


def sample(afield: AnalyticField, axes) -> RegularGrid:
    """Evaluate an analytic field at every vertex of the given axes."""
    axes = tuple(axes)
    if len(axes) != afield.dim:
        raise DimensionMismatchError(
            f"field is {afield.dim}-dimensional, got {len(axes)} axes")
    return RegularGrid(axes, afield.value(lattice(axes)),
                       components=afield.components)


def oracle_coefficients(grid: RegularGrid, elem: ElementRef,
                        policy: BoundaryPolicy = BoundaryPolicy.STRICT
                        ) -> np.ndarray:
    """Element coefficients by the slow, independent route.

    Builds the constraint vector ``difference @ samples`` explicitly and
    solves the constraint system with a generic dense solver, never
    touching the Kronecker-power operator or the stencil kernel. Shape
    ``(m, 4^dim)``: row c holds component c's unit-cell coefficients
    (monomial column e = sum_d exponent_d * 4^d, as in
    :meth:`Interpolator.coefficients`). Its polynomial is the reference
    that :func:`check_fused_oracle` compares evaluation with. Raises
    numpy's ``LinAlgError`` if the constraint matrix is singular.
    """
    # read through the module, so a matrix patched in is the one solved
    block = neighborhood_block(grid, elem, policy)  # (S, m)
    alpha = np.linalg.solve(operators.constraint_matrix(grid.dim),
                            operators.difference_matrix(grid.dim) @ block)
    return alpha.T.copy()


def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, or InvalidArgumentError for a seed
    it rejects."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(
            f"seed must be one np.random.default_rng accepts, got "
            f"{shown(seed)}: {exc}") from None


def convergence_study(afield: AnalyticField, lo, hi,
                      base_count: int = 9, n_levels: int = 4,
                      n_probes: int = 40, seed: int = 0) -> dict:
    """Empirical accuracy order of the interpolant for one field.

    Samples the field on grids over ``[lo, hi]^dim`` whose resolution
    doubles per level, interpolates at one fixed set of interior probe
    points, and fits the slope of log2(max error) against log2(spacing).
    Probes are drawn once, inside the strict queryable domain of the
    coarsest grid, from a seeded generator. Returns the metrics
    ``{"order": fitted slope, "errors": max error per level,
    "spacings": largest spacing per level}``. Raises
    InvalidArgumentError unless ``lo < hi``, both finite, on every axis,
    ``base_count >= 4``, ``n_levels >= 2``, ``n_probes >= 1`` and
    ``seed`` is one ``np.random.default_rng`` accepts.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    dim = afield.dim
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise DimensionMismatchError(f"lo/hi must each have {dim} entries")
    if not np.all((lo < hi) & np.isfinite(lo) & np.isfinite(hi)):
        raise InvalidArgumentError(
            f"need finite lo < hi on every axis, got lo={lo.tolist()}, "
            f"hi={hi.tolist()}")
    if base_count < 4 or n_levels < 2 or n_probes < 1:
        raise InvalidArgumentError(
            f"need base_count >= 4, n_levels >= 2 and n_probes >= 1, got "
            f"{shown(base_count)}, {shown(n_levels)} and {shown(n_probes)}")
    coarse_h = (hi - lo) / (base_count - 1)
    rng = _rng(seed)
    probes = rng.uniform(lo + 1.05 * coarse_h, hi - 1.05 * coarse_h,
                         size=(n_probes, dim))
    truth = afield.value(probes)

    spacings = []
    errors = []
    for level in range(n_levels):
        count = (base_count - 1) * 2 ** level + 1
        axes = tuple(
            Axis(float(lo[d]), float((hi[d] - lo[d]) / (count - 1)), count)
            for d in range(dim))
        grid = sample(afield, axes)
        interp = Interpolator(grid)
        approx = interp.eval_batch(probes)
        if not np.all(approx.ok):
            raise ValueError("a probe point left the queryable domain")
        errors.append(float(np.max(np.abs(approx.values - truth))))
        spacings.append(float(np.max([a.spacing for a in axes])))
    log_h = np.log2(spacings)
    log_e = np.log2(np.maximum(errors, 1e-300))
    order = float(np.polyfit(log_h, log_e, 1)[0])
    return {"order": order, "errors": tuple(errors),
            "spacings": tuple(spacings)}


def catmull_rom_1d(f_m1: float, f_0: float, f_1: float, f_2: float,
                   u: float) -> float:
    """Cubic through 4 uniform samples with centered-difference slopes.

    Interpolates between the middle two samples at local coordinate
    ``u`` in [0, 1]; this is exactly what the full interpolant reduces
    to along a grid line.
    """
    a0 = f_0
    a1 = 0.5 * (f_1 - f_m1)
    a2 = f_m1 - 2.5 * f_0 + 2.0 * f_1 - 0.5 * f_2
    a3 = -0.5 * f_m1 + 1.5 * f_0 - 1.5 * f_1 + 0.5 * f_2
    return ((a3 * u + a2) * u + a1) * u + a0


# --------------------------------------------------------- release checks
# Each returns ``(ok, metrics)``, measured numbers by name, and holds its
# own bound. ``seed`` is anything ``np.random.default_rng`` accepts, and
# every count is an integer >= 1; either raises InvalidArgumentError
# otherwise, as a check that measured nothing must not pass.


def _count(n, name: str) -> None:
    """Raise InvalidArgumentError unless ``n`` is an integer >= 1."""
    if not is_integer(n) or n < 1:
        raise InvalidArgumentError(
            f"{name} must be an integer >= 1, got {shown(n)}")


def check_operators_exact(dim: int):
    """The Kronecker-power operator solves the exact constraint system
    (:func:`hyperspline.operators.operator_is_exact`)."""
    return operator_is_exact(dim), {"size": 4 ** dim}


def check_fused_oracle(interp: Interpolator, n_elements: int, seed):
    """At a random local point of each of random valid elements, the
    value and first partials from the stencil kernel
    (:meth:`Interpolator.eval_local`) match the polynomial of the
    dense-solve oracle's coefficients to rounding, relative to the
    largest sample magnitude in the element's neighbourhood where that
    exceeds 1. Partials are compared per unit cell, the gradient times
    the axis spacing, so the bound does not depend on the spacing. A
    singular constraint system leaves no oracle, and fails the check."""
    _count(n_elements, "n_elements")
    rng = _rng(seed)
    grid = interp.grid
    ranges = grid.element_base_range(interp.policy)
    spacings = np.array([a.spacing for a in grid.axes])
    worst = 0.0
    for _ in range(n_elements):
        elem = ElementRef(tuple(int(rng.integers(lo, hi + 1))
                                for lo, hi in ranges))
        u = rng.uniform(0.0, 1.0, grid.dim)
        got = interp.eval_local(elem, u)
        try:
            coeffs = oracle_coefficients(grid, elem, interp.policy)
        except np.linalg.LinAlgError:
            return False, {"constraint_system": "singular"}
        # column e = sum_d exp_d * 4^d: reshaped, axis j holds the
        # exponent of u[dim - 1 - j], so transposed, axis d holds u[d]'s
        want = np.array([[_polynomial(row.reshape((4,) * grid.dim).T, u, a)
                          for a in (None, *range(grid.dim))]
                         for row in coeffs])
        diff = np.column_stack([got.values, got.gradient * spacings]) - want
        block = neighborhood_block(grid, elem, interp.policy)
        worst = max(worst, float(np.max(np.abs(diff)))
                    / max(1.0, float(np.max(np.abs(block)))))
    return worst <= 1e-10, {"max_scaled_diff": worst}


def check_vertex_reproduction(interp: Interpolator, n_vertices: int, seed):
    """Queries at random interior vertices return the samples of every
    component to rounding."""
    _count(n_vertices, "n_vertices")
    rng = _rng(seed)
    grid = interp.grid
    worst = 0.0
    for _ in range(n_vertices):
        idx = tuple(int(rng.integers(1, a.count - 1)) for a in grid.axes)
        got = interp.eval([a.coordinate(i) for a, i in zip(grid.axes, idx)])
        want = grid.values[idx[::-1]]
        worst = max(worst, float(np.max(
            np.abs(got - want) / np.maximum(np.abs(want), 1e-300))))
    return worst <= 1e-12, {"max_rel_err": worst}


def _polynomial_probes(dim: int, degree: int, n_points: int, seed):
    """A random polynomial of per-axis ``degree`` sampled on 6^dim
    vertices spaced 0.5, and its interpolant at ``n_points`` random
    queryable points: ``(field, points, BatchResult)``."""
    _count(n_points, "n_points")
    rng = _rng(seed)
    afield = tensor_polynomial_field(dim, degree, rng)
    grid = sample(afield, [Axis(-1.0, 0.5, 6)] * dim)
    dom = grid.queryable_domain(BoundaryPolicy.STRICT)
    pts = np.stack([rng.uniform(lo, hi, n_points) for lo, hi in dom], axis=1)
    return afield, pts, Interpolator(grid).eval_batch(pts)


def check_quadratic_exactness(dim: int, n_points: int, seed):
    """A random polynomial of per-axis degree 2 is reproduced, its value
    and every partial, to rounding (relative; absolute below magnitude
    0.01 for values and 1 for partials)."""
    afield, pts, res = _polynomial_probes(dim, 2, n_points, seed)
    value, grad = afield.value(pts), afield.gradient(pts)
    value_rel = float(np.max(np.abs(res.values - value)
                             / np.maximum(np.abs(value), 1e-2)))
    grad_rel = float(np.max(np.abs(res.gradients - grad)
                            / np.maximum(np.abs(grad), 1.0)))
    return (max(value_rel, grad_rel) <= 1e-10,
            {"value_rel": value_rel, "grad_rel": grad_rel})


def check_cubic_inexactness(dim: int, n_points: int, seed):
    """A random polynomial of per-axis degree 3 is not reproduced: its
    largest value error is far above rounding, so degree 2 is the
    exactness class."""
    afield, pts, res = _polynomial_probes(dim, 3, n_points, seed)
    err = float(np.max(np.abs(res.values - afield.value(pts))))
    return err > 1e-6, {"max_abs_err": err}


def check_c1_continuity(interp: Interpolator, n_samples: int, seed):
    """Values and first partials agree across shared element faces to
    rounding: at random points on random interior faces, each evaluated
    from both adjacent elements (local coordinate 1 on the lower side, 0
    on the upper), the largest value and partial jumps. The two-sided
    evaluation is its own oracle. Raises InvalidArgumentError on a grid
    with no pair of adjacent valid elements."""
    _count(n_samples, "n_samples")
    rng = _rng(seed)
    ranges = interp.grid.element_base_range(interp.policy)
    axes_with_pairs = [d for d, (lo, hi) in enumerate(ranges) if hi > lo]
    if not axes_with_pairs:
        raise InvalidArgumentError(
            "grid has no pair of adjacent valid elements")
    value_jump = 0.0
    gradient_jump = 0.0
    for _ in range(n_samples):
        d = axes_with_pairs[rng.integers(len(axes_with_pairs))]
        base = [int(rng.integers(lo, hi + 1)) for lo, hi in ranges]
        if base[d] == ranges[d][1]:
            base[d] -= 1
        rbase = list(base)
        rbase[d] += 1
        u_left = rng.uniform(0.0, 1.0, size=interp.dim)
        u_right = u_left.copy()
        u_left[d] = 1.0
        u_right[d] = 0.0
        a = interp.eval_local(ElementRef(tuple(base)), u_left)
        b = interp.eval_local(ElementRef(tuple(rbase)), u_right)
        value_jump = max(value_jump,
                         float(np.max(np.abs(a.values - b.values))))
        gradient_jump = max(gradient_jump,
                            float(np.max(np.abs(a.gradient - b.gradient))))
    return (max(value_jump, gradient_jump) <= 1e-9,
            {"value_jump": value_jump, "gradient_jump": gradient_jump})


def check_c2_jump(interp: Interpolator, n_probes: int, seed):
    """The interpolant is not C2: the second x-partial, taken a hair to
    either side of random faces between valid elements, jumps well above
    rounding somewhere."""
    _count(n_probes, "n_probes")
    rng = _rng(seed)
    axes = interp.grid.axes
    ranges = interp.grid.element_base_range(interp.policy)
    if ranges[0][1] == ranges[0][0]:
        raise InvalidArgumentError(
            "grid has no pair of valid elements adjacent along x")
    eps = 1e-7 * axes[0].spacing
    orders = (2,) + (0,) * (interp.dim - 1)
    worst = 0.0
    for _ in range(n_probes):
        face = axes[0].coordinate(int(rng.integers(*ranges[0])) + 1)
        rest = [a.coordinate(int(rng.integers(lo, hi + 1)))
                + rng.uniform(0.2, 0.8) * a.spacing
                for a, (lo, hi) in zip(axes[1:], ranges[1:])]
        left = interp.derivative([face - eps] + rest, orders)
        right = interp.derivative([face + eps] + rest, orders)
        worst = max(worst, float(np.max(np.abs(left - right))))
    return worst > 1e-9, {"second_partial_jump": worst}


def check_line_reduction(n_probes: int, seed):
    """Along x grid lines of a 3D trig grid the interpolant is the 1-D
    Catmull-Rom cubic through the line's samples, to rounding."""
    _count(n_probes, "n_probes")
    rng = _rng(seed)
    grid = sample(trig_product_field(3), [Axis(0.0, 0.5, 8)] * 3)
    interp = Interpolator(grid)
    ax = grid.axes
    worst = 0.0
    for _ in range(n_probes):
        j, k = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        i = int(rng.integers(1, 5))
        u = float(rng.uniform(0, 1))
        got = interp.eval([ax[0].coordinate(i) + u * ax[0].spacing,
                           ax[1].coordinate(j), ax[2].coordinate(k)])[0]
        f = [grid.vertex_value((i + o, j, k)) for o in (-1, 0, 1, 2)]
        worst = max(worst, abs(float(got) - catmull_rom_1d(*f, u)))
    return worst <= 1e-12, {"max_abs_diff": worst}


def check_time_slice(n_probes: int, seed):
    """A 4D grid holding the same 3D samples at every t matches the 3D
    grid at every t, in values and x, y, z partials, and its t partial
    is 0, all to rounding."""
    _count(n_probes, "n_probes")
    rng = _rng(seed)
    grid3 = sample(trig_product_field(3), [Axis(0.0, 0.5, 6)] * 3)
    i3 = Interpolator(grid3)
    i4 = Interpolator(RegularGrid(grid3.axes + (Axis(0.0, 1.0, 5),),
                                  np.stack([grid3.values] * 5)))
    dom = grid3.queryable_domain(BoundaryPolicy.STRICT)
    worst = 0.0
    for _ in range(n_probes):
        p3 = [float(rng.uniform(lo, hi)) for lo, hi in dom]
        r3 = i3.eval_with_gradient(p3)
        r4 = i4.eval_with_gradient(p3 + [float(rng.uniform(1.0, 3.0))])
        diff = np.concatenate([r4.values - r3.values,
                               (r4.gradient[:, :3] - r3.gradient).ravel(),
                               r4.gradient[:, 3]])
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst <= 1e-12, {"max_abs_diff": worst}


def check_convergence_order(seed):
    """On a 3D trig field over [0, 3]^3 refined three times, the max
    error falls at every level and its fitted order is close to the
    design rate of 3."""
    study = convergence_study(
        trig_product_field(3), lo=np.zeros(3), hi=np.full(3, 3.0),
        base_count=9, n_levels=4, n_probes=40, seed=seed)
    order, e = study["order"], study["errors"]
    return (order >= 2.7 and all(b < a for a, b in zip(e, e[1:])),
            {"order": order, "errors": e})


def release_checks(grid, seed: int):
    """``hyperspline validate``'s ``(name, call)`` rows in order: the
    checks on analytic fields, or with a ``grid`` those that need no
    analytic truth. ``call()`` returns ``(ok, metrics)``; a string in
    its place is the reason the check is skipped."""
    if grid is not None:
        interp = Interpolator(grid)
        return [
            ("c1_continuity", "too_few_elements"
             if max(grid.element_counts(interp.policy)) == 1
             else partial(check_c1_continuity, interp, 400, seed)),
            ("vertex_reproduction",
             partial(check_vertex_reproduction, interp, 100, seed)),
            ("fused_oracle", partial(check_fused_oracle, interp, 10, seed)),
        ] + [(name, "needs_analytic_truth") for name in (
            "exactness_quadratic", "cubic_inexact", "line_reduction",
            "time_slice_consistency", "convergence_order")]
    dims = SUPPORTED_DIMS
    rng = _rng(seed)
    poly = {d: Interpolator(sample(tensor_polynomial_field(d, 3, rng),
                                   [Axis(-1.0, 0.4, 6)] * d))
            for d in dims}
    trig = {d: Interpolator(sample(trig_product_field(d),
                                   [Axis(0.0, 0.5, 7)] * d))
            for d in dims}
    rows = [(f"operators_exact_dim{d}", partial(check_operators_exact, d))
            for d in dims]
    rows += [(f"fused_oracle_dim{d}",
              partial(check_fused_oracle, poly[d], 10, seed)) for d in dims]
    rows += [(f"vertex_reproduction_dim{d}",
              partial(check_vertex_reproduction, trig[d], 100, seed))
             for d in dims]
    for d in dims:
        rows += [(f"exactness_quadratic_dim{d}",
                  partial(check_quadratic_exactness, d, 200, seed)),
                 (f"cubic_inexact_dim{d}",
                  partial(check_cubic_inexactness, d, 200, seed))]
    for d in dims:
        rows += [(f"c1_continuity_dim{d}",
                  partial(check_c1_continuity, trig[d], 400, seed)),
                 (f"c2_jump_documented_dim{d}",
                  partial(check_c2_jump, trig[d], 50, seed))]
    return rows + [
        ("line_reduction", partial(check_line_reduction, 50, seed)),
        ("time_slice_consistency", partial(check_time_slice, 60, seed)),
        ("convergence_order", partial(check_convergence_order, seed))]
