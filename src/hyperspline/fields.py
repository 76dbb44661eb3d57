"""Analytic test fields, the brute-force coefficient oracle, validation
studies, and the release checks.

Everything here exists to check the interpolator against ground truth:
fields with known values *and* known gradients, an independent
dense-solve route to the element coefficients, scans that measure the
continuity and accuracy the interpolant is supposed to deliver, and
the release checks that ``hyperspline validate`` and the acceptance
tests both run.

Module contents:
    AnalyticField        -- value + gradient callables with a self-check
    constant_field, linear_field, multilinear_field,
    tensor_polynomial_field, trig_product_field, quadrupole_field
                         -- field builders
    sample               -- evaluate a field on a grid
    oracle_coefficients  -- dense-solve route to element coefficients
    continuity_scan      -- max value/gradient jump across element faces
    convergence_study    -- empirical accuracy order under refinement
    catmull_rom_1d       -- reference 1-d cubic through 4 uniform samples
    check_*              -- the release checks, each -> (ok, metrics)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidArgumentError
from .grid import (Axis, BoundaryPolicy, ElementRef, RegularGrid, lattice,
                   neighborhood_block)
from .interpolator import Interpolator
from .operators import (constraint_matrix, difference_matrix,
                        monomial_exponents, operator_is_exact)


@dataclass(frozen=True)
class AnalyticField:
    """A field with analytically known value and gradient.

    ``value(point) -> (m,)`` and ``gradient(point) -> (m, dim)`` must be
    consistent; construction spot-checks the gradient against central
    finite differences at a few points and refuses mismatched pairs.
    """

    dim: int
    components: int
    value: callable
    gradient: callable
    descriptor: str
    check_box: tuple = field(default=((0.0, 1.0),), repr=False)

    def __post_init__(self):
        rng = np.random.default_rng(17)
        box = self.check_box
        if len(box) == 1:
            box = box * self.dim
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        h = 1e-6 * np.max(hi - lo)
        for _ in range(3):
            p = rng.uniform(lo + 2 * h, hi - 2 * h)
            v = np.asarray(self.value(p), dtype=np.float64)
            g = np.asarray(self.gradient(p), dtype=np.float64)
            if v.shape != (self.components,) or g.shape != (self.components,
                                                            self.dim):
                raise ValueError(
                    f"field '{self.descriptor}' returned shapes {v.shape} / "
                    f"{g.shape}, expected ({self.components},) / "
                    f"({self.components}, {self.dim})")
            for d in range(self.dim):
                step = np.zeros(self.dim)
                step[d] = h
                fd = (np.asarray(self.value(p + step))
                      - np.asarray(self.value(p - step))) / (2 * h)
                scale = np.maximum(np.abs(g[:, d]), 1.0)
                if np.any(np.abs(fd - g[:, d]) > 1e-4 * scale):
                    raise ValueError(
                        f"field '{self.descriptor}' gradient disagrees with "
                        f"finite differences on axis {d}")


def constant_field(dim: int, value: float = 5.0) -> AnalyticField:
    c = np.array([float(value)])

    return AnalyticField(
        dim, 1,
        lambda p: c.copy(),
        lambda p: np.zeros((1, dim)),
        f"constant {value}")


def linear_field(dim: int, coeffs=None, offset: float = 0.0) -> AnalyticField:
    if coeffs is None:
        coeffs = np.arange(1, dim + 1, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)

    return AnalyticField(
        dim, 1,
        lambda p: np.array([offset + float(coeffs @ np.asarray(p))]),
        lambda p: coeffs.reshape(1, dim).copy(),
        f"linear {coeffs.tolist()} + {offset}")


def multilinear_field(dim: int) -> AnalyticField:
    def value(p):
        return np.array([float(np.prod(p))])

    def gradient(p):
        p = np.asarray(p, dtype=np.float64)
        g = np.empty((1, dim))
        for d in range(dim):
            rest = np.delete(p, d)
            g[0, d] = float(np.prod(rest))
        return g

    return AnalyticField(dim, 1, value, gradient, "multilinear product",
                         check_box=((0.5, 2.0),))


def tensor_polynomial_field(dim: int, degree: int,
                            rng: np.random.Generator) -> AnalyticField:
    """Random polynomial with per-axis degree <= ``degree``.

    Coefficients are drawn uniformly from [-1, 1] over the full exponent
    box {0..degree}^dim. Degree 2 is inside the interpolant's exactness
    class; degree 3 is deliberately outside it (centered differences
    misestimate cubic slopes).
    """
    shape = (degree + 1,) * dim
    coeffs = rng.uniform(-1.0, 1.0, size=shape)

    def powers(x):
        return x ** np.arange(degree + 1)

    def value(p):
        acc = coeffs
        for d in range(dim - 1, -1, -1):
            acc = acc @ powers(p[d])
        return np.array([float(acc)])

    def gradient(p):
        g = np.empty((1, dim))
        dpow = np.arange(degree + 1)
        for d in range(dim):
            acc = coeffs
            for dd in range(dim - 1, -1, -1):
                if dd == d:
                    vec = dpow * p[dd] ** np.maximum(dpow - 1, 0)
                else:
                    vec = powers(p[dd])
                acc = acc @ vec
            g[0, d] = float(acc)
        return g

    return AnalyticField(dim, 1, value, gradient,
                         f"tensor polynomial, per-axis degree {degree}")


def trig_product_field(dim: int) -> AnalyticField:
    """Smooth product of sines/cosines with incommensurate frequencies."""
    freqs = np.array([1.3, 0.9, 1.1, 0.7])[:dim]

    def value(p):
        terms = np.sin(freqs[0] * p[0])
        for d in range(1, dim):
            terms = terms * np.cos(freqs[d] * p[d])
        return np.array([float(terms)])

    def gradient(p):
        base = [np.sin(freqs[0] * p[0])] + [
            np.cos(freqs[d] * p[d]) for d in range(1, dim)]
        dbase = [freqs[0] * np.cos(freqs[0] * p[0])] + [
            -freqs[d] * np.sin(freqs[d] * p[d]) for d in range(1, dim)]
        g = np.empty((1, dim))
        for d in range(dim):
            fac = [dbase[i] if i == d else base[i] for i in range(dim)]
            g[0, d] = float(np.prod(fac))
        return g

    return AnalyticField(dim, 1, value, gradient, "trig product")


def quadrupole_field() -> AnalyticField:
    """Time-modulated quadrupole-like vector field (dim 4, m = 3).

    Transverse gradient field with a soft axial envelope and sinusoidal
    time modulation; the z component keeps the field divergence-looking
    without pretending to physical accuracy.
    """
    def parts(p):
        x, y, z, t = (float(v) for v in p)
        g = 1.0 + 0.5 * np.sin(1.1 * t)
        dg = 0.55 * np.cos(1.1 * t)
        w = np.exp(-0.25 * z * z)
        dw = -0.5 * z * w
        return x, y, z, g, dg, w, dw

    def value(p):
        x, y, z, g, dg, w, dw = parts(p)
        return np.array([g * x * w, -g * y * w, -0.5 * g * (x * x - y * y) * dw])

    def gradient(p):
        x, y, z, g, dg, w, dw = parts(p)
        ddw = (-0.5 + 0.25 * z * z) * w  # d(dw)/dz
        return np.array([
            [g * w, 0.0, g * x * dw, dg * x * w],
            [0.0, -g * w, -g * y * dw, -dg * y * w],
            [-g * x * dw, g * y * dw, -0.5 * g * (x * x - y * y) * ddw,
             -0.5 * dg * (x * x - y * y) * dw],
        ])

    return AnalyticField(4, 3, value, gradient, "time-varying quadrupole",
                         check_box=((-1.5, 1.5),))


def sample(afield: AnalyticField, axes) -> RegularGrid:
    """Evaluate an analytic field at every vertex of the given axes."""
    axes = tuple(axes)
    if len(axes) != afield.dim:
        raise DimensionMismatchError(
            f"field is {afield.dim}-dimensional, got {len(axes)} axes")
    values = np.array([afield.value(point) for point in lattice(axes)])
    return RegularGrid(axes, values, components=afield.components)


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
    that :func:`check_fused_oracle` compares evaluation with.
    """
    constraint, difference = _constraint_system(grid.dim)
    block = neighborhood_block(grid, elem, policy)  # (S, m)
    alpha = np.linalg.solve(constraint, difference @ block)
    return alpha.T.copy()


@functools.cache
def _constraint_system(dim: int):
    """Dense float constraint and difference matrices, built once per dim."""
    mats = (constraint_matrix(dim).astype(np.float64),
            difference_matrix(dim))
    for m in mats:
        m.flags.writeable = False
    return mats


@dataclass(frozen=True)
class ContinuityReport:
    """Worst-case discrepancies found on shared element faces."""

    n_samples: int
    max_value_jump: float
    max_gradient_jump: float


def continuity_scan(interp: Interpolator, n_samples: int,
                    seed: int = 0) -> ContinuityReport:
    """Measure value/gradient agreement across shared element faces.

    Samples random points on random interior faces and evaluates each
    from both adjacent elements (local coordinate 1 on the lower side,
    0 on the upper); the two-sided evaluation is its own oracle. Smooth
    fields of order-1 magnitude should show jumps at rounding level.
    """
    rng = np.random.default_rng(seed)
    ranges = interp.grid.element_base_range(interp.policy)
    axes_with_pairs = [d for d, (lo, hi) in enumerate(ranges) if hi > lo]
    if not axes_with_pairs:
        raise InvalidArgumentError(
            "grid has no pair of adjacent valid elements")
    max_v = 0.0
    max_g = 0.0
    for _ in range(n_samples):
        d = axes_with_pairs[rng.integers(len(axes_with_pairs))]
        base = [int(rng.integers(lo, hi + 1)) for lo, hi in ranges]
        if base[d] == ranges[d][1]:
            base[d] -= 1
        left = ElementRef(tuple(base))
        rbase = list(base)
        rbase[d] += 1
        right = ElementRef(tuple(rbase))
        u = rng.uniform(0.0, 1.0, size=interp.dim)
        u_left = u.copy()
        u_left[d] = 1.0
        u_right = u.copy()
        u_right[d] = 0.0
        a = interp.eval_local(left, u_left)
        b = interp.eval_local(right, u_right)
        max_v = max(max_v, float(np.max(np.abs(a.values - b.values))))
        max_g = max(max_g, float(np.max(np.abs(a.gradient - b.gradient))))
    return ContinuityReport(n_samples, max_v, max_g)


@dataclass(frozen=True)
class ConvergenceReport:
    """Max interpolation error per refinement level and the fitted order."""

    spacings: tuple
    max_errors: tuple
    fitted_order: float

    @property
    def strictly_decreasing(self) -> bool:
        e = self.max_errors
        return all(b < a for a, b in zip(e, e[1:]))


def convergence_study(afield: AnalyticField, lo, hi,
                      base_count: int = 9, n_levels: int = 4,
                      n_probes: int = 40, seed: int = 0
                      ) -> ConvergenceReport:
    """Empirical accuracy order of the interpolant for one field.

    Samples the field on grids over ``[lo, hi]^dim`` whose resolution
    doubles per level, interpolates at one fixed set of interior probe
    points, and fits the slope of log2(max error) against log2(spacing).
    Probes are drawn once, inside the strict queryable domain of the
    coarsest grid, from a seeded generator.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    dim = afield.dim
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise DimensionMismatchError(f"lo/hi must each have {dim} entries")
    coarse_h = (hi - lo) / (base_count - 1)
    rng = np.random.default_rng(seed)
    probes = rng.uniform(lo + 1.05 * coarse_h, hi - 1.05 * coarse_h,
                         size=(n_probes, dim))
    truth = np.stack([afield.value(p) for p in probes])

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
    return ConvergenceReport(tuple(spacings), tuple(errors), order)


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
# own bound. ``seed`` is anything ``np.random.default_rng`` accepts.


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
    the axis spacing, so the bound does not depend on the spacing."""
    rng = np.random.default_rng(seed)
    grid = interp.grid
    ranges = grid.element_base_range(interp.policy)
    spacings = np.array([a.spacing for a in grid.axes])
    exps = monomial_exponents(grid.dim)
    worst = 0.0
    for _ in range(n_elements):
        elem = ElementRef(tuple(int(rng.integers(lo, hi + 1))
                                for lo, hi in ranges))
        u = rng.uniform(0.0, 1.0, grid.dim)
        got = interp.eval_local(elem, u)
        # per monomial: its value at u, then its partial along each axis
        powers = u ** exps
        monomials = [np.prod(powers, axis=1)]
        for d in range(grid.dim):
            dpow = powers.copy()
            dpow[:, d] = exps[:, d] * u[d] ** np.maximum(exps[:, d] - 1, 0)
            monomials.append(np.prod(dpow, axis=1))
        want = (oracle_coefficients(grid, elem, interp.policy)
                @ np.stack(monomials, axis=1))
        diff = np.column_stack([got.values, got.gradient * spacings]) - want
        block = neighborhood_block(grid, elem, interp.policy)
        worst = max(worst, float(np.max(np.abs(diff)))
                    / max(1.0, float(np.max(np.abs(block)))))
    return worst <= 1e-10, {"max_scaled_diff": worst}


def check_vertex_reproduction(interp: Interpolator, n_vertices: int, seed):
    """Queries at random interior vertices return the samples of every
    component to rounding."""
    rng = np.random.default_rng(seed)
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
    rng = np.random.default_rng(seed)
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
    value = np.array([afield.value(p) for p in pts])
    grad = np.array([afield.gradient(p) for p in pts])
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
    value = np.array([afield.value(p) for p in pts])
    err = float(np.max(np.abs(res.values - value)))
    return err > 1e-6, {"max_abs_err": err}


def check_c1_continuity(interp: Interpolator, n_samples: int, seed):
    """Values and first partials agree across shared element faces to
    rounding (:func:`continuity_scan`)."""
    scan = continuity_scan(interp, n_samples, seed)
    return (max(scan.max_value_jump, scan.max_gradient_jump) <= 1e-9,
            {"value_jump": scan.max_value_jump,
             "gradient_jump": scan.max_gradient_jump})


def check_c2_jump(interp: Interpolator, n_probes: int, seed):
    """The interpolant is not C2: the second x-partial, taken a hair to
    either side of random faces between valid elements, jumps well above
    rounding somewhere."""
    rng = np.random.default_rng(seed)
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
    grid = sample(trig_product_field(3), [Axis(0.0, 0.5, 8)] * 3)
    interp = Interpolator(grid)
    ax = grid.axes
    rng = np.random.default_rng(seed)
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
    grid3 = sample(trig_product_field(3), [Axis(0.0, 0.5, 6)] * 3)
    i3 = Interpolator(grid3)
    i4 = Interpolator(RegularGrid(grid3.axes + (Axis(0.0, 1.0, 5),),
                                  np.stack([grid3.values] * 5)))
    dom = grid3.queryable_domain(BoundaryPolicy.STRICT)
    rng = np.random.default_rng(seed)
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
    return (study.fitted_order >= 2.7 and study.strictly_decreasing,
            {"order": study.fitted_order, "errors": study.max_errors})
