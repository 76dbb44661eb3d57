"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line with its measured numbers (run with
``pytest tests/test_acceptance.py -v -s`` to see them) and enforces both
the numeric tolerance and the runtime budget of its criterion.
"""

import time

import numpy as np

from hyperspline import (
    Axis,
    BoundaryPolicy,
    Interpolator,
    RegularGrid,
    load_grid_csv,
    write_grid_csv,
)
from hyperspline.fields import (
    check_c1_continuity,
    check_c2_jump,
    check_convergence_order,
    check_cubic_inexactness,
    check_fused_oracle,
    check_line_reduction,
    check_operators_exact,
    check_quadratic_exactness,
    check_time_slice,
    check_vertex_reproduction,
    sample,
    tensor_polynomial_field,
    trig_product_field,
)
from hyperspline.operators import constraint_matrix, integer_inverse

STRICT = BoundaryPolicy.STRICT


def report(name, ok, elapsed, budget, detail):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.2f}s of {budget:.0f}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded {budget}s ({elapsed:.2f}s)"


def random_points(grid, n, rng, policy=STRICT):
    dom = grid.queryable_domain(policy)
    return np.stack([rng.uniform(lo, hi, n) for lo, hi in dom], axis=1)


def test_01_operator_exactness():
    t0 = time.perf_counter()
    details = []
    ok = True
    for dim, size in ((3, 64), (4, 256)):
        exact, metrics = check_operators_exact(dim)
        ok &= exact and metrics["size"] == size
        constraint = constraint_matrix(dim)
        constraint_inv = integer_inverse(constraint)
        ok &= constraint.shape == (size, size)
        ok &= constraint.dtype == np.int64
        ok &= constraint_inv.dtype == np.int64
        prod = constraint @ constraint_inv
        ok &= bool(np.array_equal(prod, np.eye(size, dtype=np.int64)))
        details.append(f"dim{dim} {size}x{size} operator exact, integer "
                       f"inverse, product==I exactly")
    report("criterion-01 operator_exactness", ok,
           time.perf_counter() - t0, 30.0, "; ".join(details))


def test_02_fused_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok, worst = True, 0.0
    for dim in (3, 4):
        for field in (tensor_polynomial_field(dim, 3, rng),
                      trig_product_field(dim)):
            interp = Interpolator(sample(field, [Axis(-1.0, 0.4, 7)] * dim))
            passed, metrics = check_fused_oracle(interp, 25, rng)
            ok &= passed
            worst = max(worst, metrics["max_scaled_diff"])
    report("criterion-02 fused_oracle_equivalence", ok,
           time.perf_counter() - t0, 10.0,
           f"50 elements per dim, kernel value and unit-cell partials vs "
           f"oracle polynomial, max scaled diff = {worst:.3e}")


def test_03_vertex_reproduction():
    interp = Interpolator(sample(trig_product_field(4),
                                 [Axis(0.0, 0.5, 7)] * 4))
    t0 = time.perf_counter()
    ok, metrics = check_vertex_reproduction(interp, 1000, 103)
    report("criterion-03 vertex_reproduction", ok,
           time.perf_counter() - t0, 1.0, f"1000 vertices, {metrics}")


def test_04_exactness_class():
    t0 = time.perf_counter()
    quadratic = [check_quadratic_exactness(dim, 1000, 104) for dim in (3, 4)]
    cubic = check_cubic_inexactness(3, 1000, 104)
    ok = all(passed for passed, _ in quadratic) and cubic[0]
    report("criterion-04 exactness_class", ok,
           time.perf_counter() - t0, 5.0,
           f"degree<=2 dims 3, 4: {[m for _, m in quadratic]}; "
           f"degree-3 dim 3: {cubic[1]}")


def test_05_c1_continuity():
    t0 = time.perf_counter()
    interp = Interpolator(sample(trig_product_field(4),
                                 [Axis(0.0, 0.5, 7)] * 4))
    c1_ok, c1 = check_c1_continuity(interp, 1000, 105)
    # C2 non-claim: the second x-partial must jump across faces
    c2_ok, c2 = check_c2_jump(interp, 20, 105)
    report("criterion-05 c1_continuity", c1_ok and c2_ok,
           time.perf_counter() - t0, 5.0,
           f"1000 face points: {c1}; 20 face probes (not C2): {c2}")


def test_06_line_reduction():
    t0 = time.perf_counter()
    ok, metrics = check_line_reduction(100, 106)
    report("criterion-06 line_reduction", ok,
           time.perf_counter() - t0, 1.0, f"100 probes, {metrics}")


def test_07_time_slice_consistency():
    t0 = time.perf_counter()
    ok, metrics = check_time_slice(500, 107)
    report("criterion-07 time_slice_consistency", ok,
           time.perf_counter() - t0, 5.0, f"500 probes, {metrics}")


def test_08_convergence_order():
    t0 = time.perf_counter()
    ok, metrics = check_convergence_order(108)
    report("criterion-08 convergence_order", ok,
           time.perf_counter() - t0, 60.0, f"{metrics}")


def test_09_round_trips(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    axes = [Axis(-0.7, 0.31, 5), Axis(2.0, 1.0, 4), Axis(0.0, 0.125, 6),
            Axis(10.0, 0.05, 4)]
    grid = RegularGrid(axes, rng.standard_normal((4, 6, 4, 5, 2)),
                       components=2, component_names=("u", "v"))
    path = tmp_path / "grid.csv"
    write_grid_csv(path, grid)
    back = load_grid_csv(path)
    ok = bool(np.array_equal(back.values, grid.values))
    # 1e-15 relative on the reconstructed vertex coordinates (spacing
    # re-derived from endpoints cannot beat eps*|coordinate|/spacing)
    for a, b in zip(grid.axes, back.axes):
        ok &= b.count == a.count
        ca, cb = a.coordinates(), b.coordinates()
        ok &= bool(np.all(np.abs(cb - ca) <= 1e-15 * np.abs(ca)))

    lines = path.read_text(encoding="utf-8").strip().split("\n")
    shuffled = [lines[0]] + [lines[1:][i]
                             for i in rng.permutation(len(lines) - 1)]
    spath = tmp_path / "shuffled.csv"
    spath.write_text("\n".join(shuffled) + "\n", encoding="utf-8")
    sback = load_grid_csv(spath)
    ok &= bool(np.array_equal(sback.values, back.values))
    report("criterion-09 round_trips", ok,
           time.perf_counter() - t0, 5.0,
           "CSV values bit-identical, shuffled load identical")


def test_10_determinism_and_concurrency(monkeypatch):
    monkeypatch.delenv("HYPERSPLINE_THREADS", raising=False)
    t0 = time.perf_counter()
    grid = sample(trig_product_field(4), [Axis(0.0, 0.5, 7)] * 4)
    rng = np.random.default_rng(110)
    pts = random_points(grid, 100_000, rng)

    cold = Interpolator(grid)
    res_cold = cold.eval_batch(pts)
    warm = Interpolator(grid)
    warm.precompute_all()
    res_warm = warm.eval_batch(pts)
    ok = bool(np.array_equal(res_cold.values, res_warm.values))
    ok &= bool(np.array_equal(res_cold.gradients, res_warm.gradients))

    monkeypatch.setenv("HYPERSPLINE_THREADS", "8")
    res_par = Interpolator(grid).eval_batch(pts)
    ok &= bool(np.array_equal(res_cold.values, res_par.values))
    ok &= bool(np.array_equal(res_cold.gradients, res_par.gradients))

    monkeypatch.setenv("HYPERSPLINE_THREADS", "0")
    res_env = Interpolator(grid).eval_batch(pts[:5000])
    ok &= bool(np.array_equal(res_cold.values[:5000], res_env.values))

    report("criterion-10 determinism_concurrency", ok,
           time.perf_counter() - t0, 30.0,
           "cold==warm and serial==parallel bit-identical over 1e5 points")
