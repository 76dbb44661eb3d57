"""Analytic test fields, the brute-force coefficient oracle, and
validation studies (continuity scan, convergence order).

Everything here exists to check the interpolator against ground truth:
fields with known values *and* known gradients, an independent
dense-solve route to the element coefficients, and scans that measure
the continuity and accuracy the interpolant is supposed to deliver.

Module contents:
    AnalyticField        -- value + gradient callables with a self-check
    constant_field, linear_field, multilinear_field,
    tensor_polynomial_field, trig_product_field, quadrupole_field
                         -- field builders (see builtin_fields)
    sample               -- evaluate a field on a grid
    oracle_coefficients  -- dense-solve route to element coefficients
    continuity_scan      -- max value/gradient jump across element faces
    convergence_study    -- empirical accuracy order under refinement
    catmull_rom_1d       -- reference 1-d cubic through 4 uniform samples
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .grid import Axis, BoundaryPolicy, ElementRef, RegularGrid, neighborhood_block
from .interpolator import Interpolator
from .operators import constraint_matrix, difference_matrix


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


def builtin_fields(dim: int, seed: int = 0):
    """The validation roster for one dimension.

    Returns (exactly_reproduced, inexact) field lists: the first group
    must be interpolated exactly (to rounding), the second is smooth but
    beyond the exactness class.
    """
    rng = np.random.default_rng(seed)
    exact = [
        constant_field(dim),
        linear_field(dim),
        multilinear_field(dim),
        tensor_polynomial_field(dim, 2, rng),
    ]
    inexact = [
        tensor_polynomial_field(dim, 3, rng),
        trig_product_field(dim),
    ]
    if dim == 4:
        inexact.append(quadrupole_field())
    return exact, inexact


def sample(afield: AnalyticField, axes) -> RegularGrid:
    """Evaluate an analytic field at every vertex of the given axes."""
    axes = tuple(axes)
    if len(axes) != afield.dim:
        raise ValueError(
            f"field is {afield.dim}-dimensional, got {len(axes)} axes")
    counts = tuple(a.count for a in axes)
    coords = [a.coordinates() for a in axes]
    out = np.empty(counts[::-1] + (afield.components,))
    for idx in np.ndindex(*counts[::-1]):
        point = np.array([coords[d][idx[len(axes) - 1 - d]]
                          for d in range(len(axes))])
        out[idx] = afield.value(point)
    return RegularGrid(axes, out, components=afield.components)


def oracle_coefficients(grid: RegularGrid, elem: ElementRef,
                        policy: BoundaryPolicy = BoundaryPolicy.STRICT
                        ) -> np.ndarray:
    """Element coefficients by the slow, independent route.

    Builds the constraint vector ``difference @ samples`` explicitly and
    solves the constraint system with a generic dense solver, never
    touching the runtime operator. Shape ``(m, 4^dim)``, matching
    :meth:`Interpolator.coefficients`.
    """
    constraint, difference = _constraint_system(grid.dim)
    block = neighborhood_block(grid, elem, policy)  # (S, m)
    alpha = np.linalg.solve(constraint, difference @ block)
    return alpha.T.copy()


@functools.cache
def _constraint_system(dim: int):
    """Dense float constraint and difference matrices, built once per dim."""
    mats = (constraint_matrix(dim).astype(np.float64),
            difference_matrix(dim).to_dense())
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
        raise ValueError("grid has no pair of adjacent valid elements")
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
        raise ValueError(f"lo/hi must each have {dim} entries")
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
