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
    ElementRef,
    Interpolator,
    RegularGrid,
    catmull_rom_1d,
    constraint_matrix,
    continuity_scan,
    convergence_study,
    invert_exact,
    load_cache,
    load_grid_csv,
    oracle_coefficients,
    sample,
    save_cache,
    tensor_polynomial_field,
    trig_product_field,
    write_grid_csv,
)
from hyperspline.interpolator import _resolve_threads

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
        constraint = constraint_matrix(dim)
        constraint_inv = invert_exact(constraint)
        ok &= constraint.shape == (size, size)
        ok &= constraint.dtype == np.int64
        ok &= constraint_inv.dtype == np.int64
        prod = constraint @ constraint_inv
        ok &= bool(np.array_equal(prod, np.eye(size, dtype=np.int64)))
        details.append(f"dim{dim} {size}x{size} integer inverse, "
                       f"product==I exactly")
    report("criterion-01 operator_exactness", ok,
           time.perf_counter() - t0, 30.0, "; ".join(details))


def test_02_fused_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for dim in (3, 4):
        for field in (tensor_polynomial_field(dim, 3, rng),
                      trig_product_field(dim)):
            grid = sample(field, [Axis(-1.0, 0.4, 7)] * dim)
            interp = Interpolator(grid)
            ranges = grid.element_base_range(STRICT)
            for _ in range(25):
                base = tuple(int(rng.integers(lo, hi + 1))
                             for lo, hi in ranges)
                diff = np.abs(interp.coefficients(ElementRef(base))
                              - oracle_coefficients(grid, ElementRef(base)))
                worst = max(worst, float(diff.max()))
    report("criterion-02 fused_oracle_equivalence", worst <= 1e-10,
           time.perf_counter() - t0, 10.0,
           f"50 elements per dim, max |coeff diff| = {worst:.3e} <= 1e-10")


def test_03_vertex_reproduction():
    grid = sample(trig_product_field(4), [Axis(0.0, 0.5, 7)] * 4)
    interp = Interpolator(grid)
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        idx = tuple(int(rng.integers(1, a.count - 1)) for a in grid.axes)
        p = [grid.axes[d].coordinate(idx[d]) for d in range(4)]
        got = interp.eval(p)[0]
        want = grid.vertex_value(idx)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    report("criterion-03 vertex_reproduction", worst <= 1e-12,
           time.perf_counter() - t0, 1.0,
           f"1000 vertices, max rel err = {worst:.3e} <= 1e-12")


def test_04_exactness_class():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_q = 0.0
    for dim in (3, 4):
        field = tensor_polynomial_field(dim, 2, rng)
        grid = sample(field, [Axis(-1.0, 0.5, 6)] * dim)
        interp = Interpolator(grid)
        pts = random_points(grid, 1000, rng)
        res = interp.eval_batch(pts)
        for i, p in enumerate(pts):
            tv = field.value(p)[0]
            tg = field.gradient(p)[0]
            worst_q = max(worst_q,
                          abs(res.values[i, 0] - tv) / max(abs(tv), 1.0))
            worst_q = max(worst_q, float(np.max(
                np.abs(res.gradients[i, 0] - tg)
                / np.maximum(np.abs(tg), 1.0))))
    cubic = tensor_polynomial_field(3, 3, rng)
    cgrid = sample(cubic, [Axis(-1.0, 1.0, 6)] * 3)
    cinterp = Interpolator(cgrid)
    cpts = random_points(cgrid, 1000, rng)
    cres = cinterp.eval_batch(cpts)
    cubic_err = float(np.max(np.abs(
        cres.values[:, 0] - [cubic.value(p)[0] for p in cpts])))
    ok = worst_q <= 1e-10 and cubic_err > 1e-6
    report("criterion-04 exactness_class", ok,
           time.perf_counter() - t0, 5.0,
           f"degree<=2 max rel err = {worst_q:.3e} <= 1e-10; "
           f"degree-3 max err = {cubic_err:.3e} > 1e-6")


def test_05_c1_continuity():
    t0 = time.perf_counter()
    grid = sample(trig_product_field(4), [Axis(0.0, 0.5, 7)] * 4)
    interp = Interpolator(grid)
    scan = continuity_scan(interp, 1000, seed=105)
    # C2 non-claim: the second x-partial must jump across faces
    rng = np.random.default_rng(105)
    eps = 1e-7 * grid.axes[0].spacing
    jump2 = 0.0
    for _ in range(20):
        face_x = grid.axes[0].coordinate(int(rng.integers(2, 5)))
        tail = [float(rng.uniform(1.0, 2.0)) for _ in range(3)]
        left = interp.derivative([face_x - eps] + tail, (2, 0, 0, 0))
        right = interp.derivative([face_x + eps] + tail, (2, 0, 0, 0))
        jump2 = max(jump2, abs(float(left[0] - right[0])))
    ok = (scan.max_value_jump <= 1e-9 and scan.max_gradient_jump <= 1e-9
          and jump2 > 1e-9)
    report("criterion-05 c1_continuity", ok,
           time.perf_counter() - t0, 5.0,
           f"1000 face points: value jump {scan.max_value_jump:.3e}, "
           f"gradient jump {scan.max_gradient_jump:.3e} <= 1e-9; "
           f"2nd-partial jump {jump2:.3e} > 1e-9 (not C2)")


def test_06_line_reduction():
    grid = sample(trig_product_field(3), [Axis(0.0, 0.5, 8)] * 3)
    interp = Interpolator(grid)
    rng = np.random.default_rng(106)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        j, k = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        i = int(rng.integers(1, 5))
        u = float(rng.uniform(0, 1))
        x = grid.axes[0].coordinate(i) + u * grid.axes[0].spacing
        got = interp.eval([x, grid.axes[1].coordinate(j),
                           grid.axes[2].coordinate(k)])[0]
        f = [grid.vertex_value((i + o, j, k)) for o in (-1, 0, 1, 2)]
        worst = max(worst, abs(got - catmull_rom_1d(*f, u)))
    report("criterion-06 line_reduction", worst <= 1e-12,
           time.perf_counter() - t0, 1.0,
           f"100 probes, max |cubic diff| = {worst:.3e} <= 1e-12")


def test_07_time_slice_consistency():
    from hyperspline import AnalyticField

    t0 = time.perf_counter()
    field3 = trig_product_field(3)
    axes3 = tuple(Axis(0.0, 0.5, 6) for _ in range(3))
    grid3 = sample(field3, axes3)
    field4 = AnalyticField(
        4, 1,
        lambda p: field3.value(p[:3]),
        lambda p: np.concatenate([field3.gradient(p[:3]), [[0.0]]], axis=1),
        "t-independent")
    grid4 = sample(field4, axes3 + (Axis(0.0, 1.0, 5),))
    i3, i4 = Interpolator(grid3), Interpolator(grid4)
    rng = np.random.default_rng(107)
    dom = grid3.queryable_domain(STRICT)
    worst = 0.0
    for _ in range(500):
        p3 = [float(rng.uniform(lo, hi)) for lo, hi in dom]
        t = float(rng.uniform(1.0, 3.0))
        r3 = i3.eval_with_gradient(p3)
        r4 = i4.eval_with_gradient(p3 + [t])
        worst = max(worst, float(np.max(np.abs(r4.values - r3.values))))
        worst = max(worst, float(np.max(np.abs(
            r4.gradient[:, :3] - r3.gradient))))
    report("criterion-07 time_slice_consistency", worst <= 1e-12,
           time.perf_counter() - t0, 5.0,
           f"500 probes, max |4D - 3D| = {worst:.3e} <= 1e-12")


def test_08_convergence_order():
    t0 = time.perf_counter()
    rep = convergence_study(trig_product_field(3), lo=np.zeros(3),
                            hi=np.full(3, 3.0), base_count=9, n_levels=4,
                            n_probes=40, seed=108)
    ok = rep.fitted_order >= 2.7 and rep.strictly_decreasing
    report("criterion-08 convergence_order", ok,
           time.perf_counter() - t0, 60.0,
           f"errors {['%.3e' % e for e in rep.max_errors]}, "
           f"fitted order {rep.fitted_order:.3f} >= 2.7, "
           f"strictly decreasing = {rep.strictly_decreasing}")


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

    tgrid = sample(trig_product_field(4), [Axis(0.0, 0.5, 6)] * 4)
    interp = Interpolator(tgrid)
    interp.precompute_all()
    pts = random_points(tgrid, 200, rng)
    ref = interp.eval_batch(pts)
    cpath = tmp_path / "coeffs.qcub"
    save_cache(cpath, interp)
    fresh = Interpolator(tgrid)
    load_cache(cpath, fresh)
    restored = dict(fresh.cache_items())
    ok &= len(restored) == interp.cache_size()
    ok &= all(np.array_equal(restored[base], coeffs)
              for base, coeffs in interp.cache_items())
    res = fresh.eval_batch(pts)
    ok &= bool(np.array_equal(res.values, ref.values))
    ok &= bool(np.array_equal(res.gradients, ref.gradients))
    report("criterion-09 round_trips", ok,
           time.perf_counter() - t0, 5.0,
           "CSV values bit-identical, shuffled load identical, "
           "cache restore coefficient- and query-identical")


def test_10_determinism_and_concurrency(monkeypatch):
    monkeypatch.delenv("HYPERSPLINE_THREADS", raising=False)
    t0 = time.perf_counter()
    grid = sample(trig_product_field(4), [Axis(0.0, 0.5, 7)] * 4)
    rng = np.random.default_rng(110)
    pts = random_points(grid, 100_000, rng)

    cold = Interpolator(grid)
    res_cold = cold.eval_batch(pts, threads=1)
    warm = Interpolator(grid)
    warm.precompute_all()
    res_warm = warm.eval_batch(pts, threads=1)
    ok = bool(np.array_equal(res_cold.values, res_warm.values))
    ok &= bool(np.array_equal(res_cold.gradients, res_warm.gradients))

    res_par = Interpolator(grid).eval_batch(pts, threads=8, chunk_size=2048)
    ok &= bool(np.array_equal(res_cold.values, res_par.values))
    ok &= bool(np.array_equal(res_cold.gradients, res_par.gradients))

    monkeypatch.setenv("HYPERSPLINE_THREADS", "2")
    assert _resolve_threads(8) == 2
    assert _resolve_threads(None) == 2
    res_env = Interpolator(grid).eval_batch(pts[:5000])
    ok &= bool(np.array_equal(res_cold.values[:5000], res_env.values))

    report("criterion-10 determinism_concurrency", ok,
           time.perf_counter() - t0, 30.0,
           "cold==warm and serial==parallel bit-identical over 1e5 points")
