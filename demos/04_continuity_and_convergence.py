"""
What the method guarantees, and what it does not
================================================

Two studies on smooth test fields:

* the C1 check -- values and first partials agree across element
  faces to rounding (the design guarantee); second partials visibly
  jump (inherent to every cubic-spline scheme, left unfixed on purpose)
* convergence study -- the error of the centered-difference-fed cubic
  shrinks like roughly h^3 under grid refinement
"""

import os

import numpy as np

from hyperspline import Axis, Interpolator
from hyperspline.fields import (
    check_c1_continuity,
    convergence_study,
    sample,
    trig_product_field,
)

field = trig_product_field(4)
grid = sample(field, [Axis(0.0, 0.5, 7)] * 4)
interp = Interpolator(grid)

_, jumps = check_c1_continuity(interp, 2000, seed=0)
print("continuity across shared element faces (2000 samples):")
print(f"  max |value jump|     {jumps['value_jump']:.2e}")
print(f"  max |gradient jump|  {jumps['gradient_jump']:.2e}")

# second partials: evaluate d2f/dx2 a hair on either side of a face
eps = 1e-7 * grid.axes[0].spacing
face_x = grid.axes[0].coordinate(3)
p_rest = [1.3, 1.7, 1.1]
left = interp.derivative([face_x - eps] + p_rest, (2, 0, 0, 0))[0]
right = interp.derivative([face_x + eps] + p_rest, (2, 0, 0, 0))[0]
print(f"  d2f/dx2 jump at a face: {abs(left - right):.2e}  "
      "(cubic splines are C1, not C2)")

print("\nconvergence under refinement, f = trig product on [0,3]^3:")
study = convergence_study(trig_product_field(3), lo=np.zeros(3),
                          hi=np.full(3, 3.0), base_count=9, n_levels=4,
                          n_probes=40, seed=0)
print("  spacing     max error")
for h, e in zip(study["spacings"], study["errors"]):
    print(f"  {h:9.5f}  {e:.3e}")
print(f"  fitted order: {study['order']:.2f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 4))
    ax.loglog(study["spacings"], study["errors"], "o-", label="measured")
    h = np.array(study["spacings"])
    ax.loglog(h, study["errors"][0] * (h / h[0]) ** 3, "--",
              label="h^3 reference")
    ax.set_xlabel("grid spacing h")
    ax.set_ylabel("max |error|")
    ax.legend()
    fig.tight_layout()
    os.makedirs("demo_output", exist_ok=True)
    fig.savefig("demo_output/convergence.png", dpi=120)
    print("\nsaved demo_output/convergence.png")
except ImportError:
    pass
