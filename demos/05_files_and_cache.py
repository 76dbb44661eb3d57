"""
Field maps on disk: CSV grids, result files, coefficient caches
===============================================================

The shapes a field-map workflow needs: ingest a grid CSV in any row
order, write query results with gradients, and persist the per-element
polynomial coefficients. Evaluation reads the samples directly and
never needs them; they are there to inspect or hand to other tools.

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
from hyperspline.io import load_cache, save_cache

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

# persist per-element coefficients: evaluation never fills the cache,
# so fill it explicitly, save it and restore it into a fresh interpolator
interp.precompute_all()
save_cache("demo_output/coeffs.qcub", interp)
fresh = Interpolator(back)
n = load_cache("demo_output/coeffs.qcub", fresh)
restored = dict(fresh.cache_items())
same = all(np.array_equal(restored[base], coeffs)
           for base, coeffs in interp.cache_items())
print(f"cache restored: {n} element tensors, bit-identical: {same}")
