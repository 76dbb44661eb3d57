"""
Quadcubic interpolation of a time-varying vector field
======================================================

The 4D case: a 3-component field over (x, y, z, t), the shape of data a
particle-tracing code pulls from a pulsed field map. One interpolator
serves values and all four partial derivatives of every component at
arbitrary space-time points.
"""

import numpy as np

from hyperspline import Axis, Interpolator
from hyperspline.fields import quadrupole_field, sample

field = quadrupole_field()   # m = 3 components, dim = 4
print("field:", field.descriptor)

axes = [Axis(-1.5, 0.5, 8),   # x
        Axis(-1.5, 0.5, 8),   # y
        Axis(-1.5, 0.5, 8),   # z
        Axis(0.0, 0.4, 10)]   # t
grid = sample(field, axes)
print("grid:", grid.counts, "vertices,", grid.components, "components")

interp = Interpolator(grid)

# follow one spatial point through time
p_xyz = np.array([0.42, -0.31, 0.2])
print("\n t      Bx        By        Bz        dBx/dt")
for t in np.linspace(0.5, 3.0, 6):
    r = interp.eval_with_gradient(np.append(p_xyz, t))
    print(f"{t:4.2f}  {r.values[0]:+.5f}  {r.values[1]:+.5f} "
          f" {r.values[2]:+.5f}  {r.gradient[0, 3]:+.5f}")

# accuracy against the analytic field
rng = np.random.default_rng(1)
dom = grid.queryable_domain(interp.policy)
pts = np.stack([rng.uniform(lo, hi, 2000) for lo, hi in dom], axis=1)
res = interp.eval_batch(pts)
truth = np.stack([field.value(p) for p in pts])
gtruth = np.stack([field.gradient(p) for p in pts])
print(f"\n2000 random space-time points:")
print(f"  max |value error|    {np.abs(res.values - truth).max():.2e}")
print(f"  max |gradient error| {np.abs(res.gradients - gtruth).max():.2e}")
