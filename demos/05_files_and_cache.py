"""
Field maps on disk: CSV grids and result files
==============================================

The shapes a field-map workflow needs: ingest a grid CSV in any row
order and write query results with gradients. Every number is written
as the shortest text that reads back as the same float64.

The same files drive the command line:

    hyperspline info  demo_output/field.csv
    hyperspline query demo_output/field.csv --point 1.0,1.2,0.9,1.5
    hyperspline validate --seed 7
"""

import os

import numpy as np

from hyperspline import (
    Axis,
    Interpolator,
    load_grid_csv,
    write_grid_csv,
    write_results_csv,
)
from hyperspline.fields import quadrupole_field, sample

os.makedirs("demo_output", exist_ok=True)

# build a vector field map and write it as CSV
grid = sample(quadrupole_field(), [Axis(-1.5, 0.5, 8)] * 3 + [Axis(0, 0.4, 8)])
write_grid_csv("demo_output/field.csv", grid)
print("wrote demo_output/field.csv:",
      np.prod(grid.counts), "rows,", grid.components, "components")

# loading reconstructs the identical grid from any row order
back = load_grid_csv("demo_output/field.csv")
print("reloaded bit-identical:", np.array_equal(back.values, grid.values))

# query a handful of points and write a results file
interp = Interpolator(back)
rng = np.random.default_rng(0)
dom = back.queryable_domain(interp.policy)
pts = np.stack([rng.uniform(lo, hi, 8) for lo, hi in dom], axis=1)
pts[3] = [99.0, 0, 0, 0]  # one point deliberately outside
res = interp.eval_batch(pts)
write_results_csv("demo_output/results.csv", pts, res, back.component_names)
print(f"wrote demo_output/results.csv ({int((~res.ok).sum())} point "
      "flagged out_of_domain)")

