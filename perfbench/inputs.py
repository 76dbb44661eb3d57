"""Seeded benchmark inputs: analytic field, grids, points, trajectories, CSV fixtures.

Everything the program under test receives is made here from the
workload seed with vectorised numpy, so one seed always gives the same
inputs.

The field is a time-dependent ABC (Arnold-Beltrami-Childress) flow with
three components, each the sum of two waves along one spatial axis:

    f_c = a sin(k_p x_p + phi + w t) + b cos(k_q x_q + psi + w t)

It is smooth, divergence-free (an advected swarm stays evenly spread),
periodic over the queryable domain (a particle leaving one side
re-enters on the other without a jump in the field), and its gradient is
known exactly. The seed picks the six phases and which amplitude goes
to which term. Wave numbers are fixed by the grid, so every seed poses
the same accuracy problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (component, trig function, spatial axis, amplitude slot) of the ABC flow:
# u = A sin z + C cos y, v = B sin x + A cos z, w = C sin y + B cos x.
ABC_TERMS = ((0, "sin", 2, 0), (0, "cos", 1, 2),
             (1, "sin", 0, 1), (1, "cos", 2, 0),
             (2, "sin", 1, 2), (2, "cos", 0, 1))
AMPLITUDES = (1.0, 0.8, 0.6)
COMPONENTS = ("fx", "fy", "fz")
AXIS_NAMES = ("x", "y", "z", "t")


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per input kind, all derived from one seed."""
    return np.random.default_rng([int(seed), int(stream)])


@dataclass(frozen=True)
class GridSpec:
    """A regular grid and the periodic box its queries live in.

    ``periods[d]`` whole field periods span the strict queryable domain
    of axis d, which runs from vertex 1 to vertex ``count - 2``.
    """

    counts: tuple
    spacings: tuple
    periods: tuple

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def lo(self) -> np.ndarray:
        return np.array(self.spacings, dtype=float)

    @property
    def hi(self) -> np.ndarray:
        return np.array([(n - 2) * h for n, h in zip(self.counts, self.spacings)])

    @property
    def length(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.array(self.periods, dtype=float) / self.length

    def coordinates(self, d: int) -> np.ndarray:
        return self.spacings[d] * np.arange(self.counts[d], dtype=float)

    def vertices(self) -> np.ndarray:
        """All vertices, x fastest, as ``(prod(counts), dim)``."""
        mesh = np.meshgrid(*[self.coordinates(d) for d in reversed(range(self.dim))],
                           indexing="ij")
        return np.stack([mesh[self.dim - 1 - d].reshape(-1)
                         for d in range(self.dim)], axis=1)

    def wrap(self, pts: np.ndarray) -> np.ndarray:
        """Fold points periodically into the queryable box.

        A margin of 1e-9 box lengths keeps points inside the domain of a
        grid re-read from CSV, whose inferred axes may differ by an ulp.
        """
        lo, length = self.lo, self.length
        eps = 1e-9 * length
        return np.clip(lo + np.mod(pts - lo, length), lo + eps, lo + length - eps)

    def uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        eps = 1e-9 * self.length
        return rng.uniform(self.lo + eps, self.hi - eps, size=(n, self.dim))

    def stratified(self, rng: np.random.Generator) -> np.ndarray:
        """One uniform point inside each queryable cell, in random order."""
        cells = np.stack(np.meshgrid(*[np.arange(n - 3) for n in self.counts],
                                     indexing="ij"), axis=-1).reshape(-1, self.dim)
        u = rng.uniform(1e-6, 1.0 - 1e-6, size=cells.shape)
        pts = self.lo + (cells + u) * np.array(self.spacings, dtype=float)
        return pts[rng.permutation(len(pts))]


@dataclass(frozen=True)
class Field:
    """One seeded ABC flow on a grid spec, with exact values and gradients."""

    spec: GridSpec
    phases: np.ndarray  # (6,), one per ABC term
    amps: np.ndarray    # (3,), amplitudes A, B, C

    @property
    def value_scale(self) -> float:
        """Largest magnitude any component can reach."""
        return float(max(self.amps[a] + self.amps[b] for a, b in ((0, 2), (1, 0), (2, 1))))

    @property
    def gradient_scale(self) -> np.ndarray:
        """Largest magnitude of each partial, per axis, ``(dim,)``."""
        return self.value_scale * self.spec.wavenumbers

    def evaluate(self, pts: np.ndarray):
        """Exact values ``(n, 3)`` and gradients ``(n, 3, dim)``."""
        pts = np.asarray(pts, dtype=float)
        dim = self.spec.dim
        k = self.spec.wavenumbers
        values = np.zeros((pts.shape[0], 3))
        grads = np.zeros((pts.shape[0], 3, dim))
        for j, (c, fn, axis, slot) in enumerate(ABC_TERMS):
            arg = k[axis] * pts[:, axis] + self.phases[j]
            if dim == 4:
                arg = arg + k[3] * pts[:, 3]
            a = self.amps[slot]
            s, co = np.sin(arg), np.cos(arg)
            val, der = (a * s, a * co) if fn == "sin" else (a * co, -a * s)
            values[:, c] += val
            grads[:, c, axis] += k[axis] * der
            if dim == 4:
                grads[:, c, 3] += k[3] * der
        return values, grads


def make_field(spec: GridSpec, seed: int) -> Field:
    rng = rng_for(seed, 0)
    return Field(spec, rng.uniform(0.0, 2.0 * np.pi, len(ABC_TERMS)),
                 rng.permutation(np.array(AMPLITUDES)))


def vertex_values(field: Field) -> np.ndarray:
    """The field at every vertex of its grid, x fastest, ``(prod(counts), 3)``."""
    return field.evaluate(field.spec.vertices())[0]


def make_grid(spec: GridSpec, values: np.ndarray):
    """``hyperspline.RegularGrid`` holding ``vertex_values`` of a field on ``spec``."""
    from hyperspline import Axis, RegularGrid

    axes = [Axis(0.0, h, n) for n, h in zip(spec.counts, spec.spacings)]
    return RegularGrid(axes, values, components=3, component_names=COMPONENTS)


def taylor_step(pts, values, grads, dt: float):
    """Second-order advection step x + dt f + dt^2/2 (grad f) f, spatial axes only."""
    v = values[:, :3]
    jv = np.einsum("nij,nj->ni", grads[:, :3, :3], v)
    out = np.array(pts, dtype=float)
    out[:, :3] += dt * v + 0.5 * dt * dt * jv
    return out


def trajectories(field: Field, rng, n_traj: int, n_steps: int, dt: float):
    """Points along ``n_traj`` advected paths, one path after another.

    Integrated with exact field values, so the stored paths do not depend
    on the program under test. Returns ``(n_traj * n_steps, dim)``.
    """
    spec = field.spec
    pos = spec.uniform(rng, n_traj)
    out = np.empty((n_steps, n_traj, spec.dim))
    for s in range(n_steps):
        out[s] = pos
        vals, grads = field.evaluate(pos)
        pos = spec.wrap(taylor_step(pos, vals, grads, dt))
    return out.transpose(1, 0, 2).reshape(-1, spec.dim)


def write_grid_csv(path, spec: GridSpec, values: np.ndarray):
    """Grid CSV fixture; ``%.17g`` round-trips every float64 exactly."""
    header = ",".join(AXIS_NAMES[:spec.dim] + COMPONENTS)
    np.savetxt(path, np.hstack([spec.vertices(), values]), fmt="%.17g", delimiter=",",
               header=header, comments="")


def write_points_csv(path, pts: np.ndarray):
    header = ",".join(AXIS_NAMES[:pts.shape[1]])
    np.savetxt(path, pts, fmt="%.17g", delimiter=",", header=header, comments="")
