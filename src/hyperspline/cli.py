"""Command-line front end.

Subcommands:
    info      -- describe a grid file (axes, domains, element counts)
    query     -- interpolate values + gradients at given points
    sample    -- resample a field onto a new regular lattice
    validate  -- run the self-check suite, optionally on a user grid
    bench     -- throughput / latency measurement

Exit codes: 0 success, 1 validation failure, 2 usage or input error.
The environment variable ``HYPERSPLINE_THREADS`` caps batch parallelism
(0 = one worker per CPU).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import fields
from .errors import HypersplineError
from .grid import Axis, BoundaryPolicy, ElementRef, RegularGrid
from .interpolator import Interpolator
from .io import (
    AXIS_NAMES,
    load_grid_csv,
    result_header,
    write_grid_csv,
    write_results_csv,
)
from .operators import operator_is_exact


class _InputError(Exception):
    """Bad user input; reported on stderr with exit code 2."""


def _policy(name: str) -> BoundaryPolicy:
    return BoundaryPolicy(name)


def _parse_floats(text: str, want: int, what: str) -> np.ndarray:
    parts = [p for p in text.split(",") if p.strip()]
    try:
        vals = np.array([float(p) for p in parts])
    except ValueError:
        raise _InputError(f"{what} must be comma-separated numbers, "
                          f"got {text!r}") from None
    if want and vals.size != want:
        raise _InputError(f"{what} needs {want} values, got {vals.size}")
    return vals


def _parse_ints(text: str, what: str):
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise _InputError(f"{what} must be comma-separated integers, "
                          f"got {text!r}") from None


def _load_grid(path) -> RegularGrid:
    try:
        return load_grid_csv(path)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    except HypersplineError as exc:
        raise _InputError(str(exc)) from None


def _read_points(args, dim: int) -> np.ndarray:
    pts = []
    for spec in args.point or []:
        pts.append(_parse_floats(spec, dim, "--point"))
    if args.points:
        try:
            with open(args.points, "r", encoding="utf-8") as fh:
                lines = [ln.strip() for ln in fh if ln.strip()]
        except OSError as exc:
            raise _InputError(f"cannot read {args.points}: {exc}") from None
        start = 0
        if lines:
            head = [c.strip() for c in lines[0].split(",")]
            if head[:dim] == list(AXIS_NAMES[:dim]):
                start = 1
        for ln in lines[start:]:
            pts.append(_parse_floats(ln, dim, f"point row {ln!r}"))
    if not pts:
        raise _InputError("no query points given (use --point or --points)")
    return np.stack(pts)


# ---------------------------------------------------------------- info --

def cmd_info(args) -> int:
    grid = _load_grid(args.grid)
    m = grid.components
    print(f"grid: {args.grid}")
    print(f"dim: {grid.dim}   components: {m} "
          f"({','.join(grid.component_names)})")
    for d, a in enumerate(grid.axes):
        print(f"axis {AXIS_NAMES[d]}: origin={a.origin!r} "
              f"spacing={a.spacing!r} count={a.count}")
    total = int(np.prod(grid.element_counts()))
    n_strict = int(np.prod(grid.element_counts(BoundaryPolicy.STRICT)))
    n_ghost = int(np.prod(grid.element_counts(BoundaryPolicy.LINEAR_GHOST)))
    print(f"elements: {total} total; valid: strict={n_strict}, "
          f"linear-ghost={n_ghost}")
    for pol in BoundaryPolicy:
        dom = grid.queryable_domain(pol)
        spans = ", ".join(
            f"{AXIS_NAMES[d]} in [{lo!r}, {hi!r}]"
            for d, (lo, hi) in enumerate(dom))
        print(f"queryable {pol.value}: {spans}")
    tensor_bytes = 8 * m * 4 ** grid.dim
    print(f"memory: samples {grid.values.nbytes / 1024:.1f} KiB; "
          f"coefficients {tensor_bytes / 1024:.1f} KiB/element, "
          f"{tensor_bytes * n_ghost / 1024:.1f} KiB fully cached")
    return 0


# --------------------------------------------------------------- query --

def _print_table(points, res, names, dim):
    header = result_header(dim, names)
    rows = [header]
    for i in range(points.shape[0]):
        cells = [f"{c:.10g}" for c in points[i]]
        if res.ok[i]:
            cells += [f"{v:.10g}" for v in res.values[i]]
            cells += [f"{g:.10g}" for g in res.gradients[i].reshape(-1)]
            cells.append("")
        else:
            cells += ["NaN"] * (res.values.shape[1] * (1 + dim))
            cells.append("out_of_domain")
        rows.append(cells)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def cmd_query(args) -> int:
    grid = _load_grid(args.grid)
    interp = Interpolator(grid, _policy(args.policy))
    points = _read_points(args, grid.dim)
    res = interp.eval_batch(points)
    if args.out:
        write_results_csv(args.out, points, res, grid.component_names)
        n_bad = int(np.sum(~res.ok))
        print(f"wrote {points.shape[0]} results to {args.out}"
              + (f" ({n_bad} out of domain)" if n_bad else ""))
    else:
        _print_table(points, res, grid.component_names, grid.dim)
    return 0


# -------------------------------------------------------------- sample --

def cmd_sample(args) -> int:
    grid = _load_grid(args.grid)
    policy = _policy(args.policy)
    interp = Interpolator(grid, policy)
    counts = _parse_ints(args.counts, "--counts")
    if len(counts) != grid.dim:
        raise _InputError(f"--counts needs {grid.dim} values")
    dom = grid.queryable_domain(policy)
    lo = (_parse_floats(args.min, grid.dim, "--min") if args.min
          else np.array([d[0] for d in dom]))
    hi = (_parse_floats(args.max, grid.dim, "--max") if args.max
          else np.array([d[1] for d in dom]))
    for d in range(grid.dim):
        if not (dom[d][0] <= lo[d] < hi[d] <= dom[d][1]):
            raise _InputError(
                f"target range [{lo[d]!r}, {hi[d]!r}] on axis "
                f"{AXIS_NAMES[d]} outside queryable "
                f"[{dom[d][0]!r}, {dom[d][1]!r}]")
    try:
        axes = tuple(Axis(float(lo[d]), float((hi[d] - lo[d]) / (counts[d] - 1)),
                          counts[d]) for d in range(grid.dim))
    except HypersplineError as exc:
        raise _InputError(str(exc)) from None
    coords = [a.coordinates() for a in axes]
    mesh = np.meshgrid(*coords[::-1], indexing="ij")
    pts = np.stack([mesh[grid.dim - 1 - d].reshape(-1)
                    for d in range(grid.dim)], axis=1)
    res = interp.eval_batch(pts)
    if not np.all(res.ok):
        raise _InputError("resampling lattice left the queryable domain")
    out_grid = RegularGrid(axes, res.values.reshape(-1),
                           components=grid.components,
                           component_names=grid.component_names)
    write_grid_csv(args.out, out_grid)
    print(f"wrote {pts.shape[0]} vertices to {args.out}")
    return 0


# ------------------------------------------------------------ validate --

class _Report:
    def __init__(self):
        self.failed = 0

    def line(self, status, name, **metrics):
        body = " ".join(f"{k}={v}" for k, v in metrics.items())
        print(f"{status:4s} {name}" + (f" {body}" if body else ""))
        if status == "FAIL":
            self.failed += 1

    def check(self, name, ok, **metrics):
        self.line("PASS" if ok else "FAIL", name, **metrics)


def _validate_builtin(rep: _Report, seed: int):
    rng = np.random.default_rng(seed)
    for dim in (3, 4):
        rep.check(f"operators_exact_dim{dim}", operator_is_exact(dim),
                  size=4 ** dim)

    for dim in (3, 4):
        field = fields.tensor_polynomial_field(dim, 3, rng)
        axes = tuple(Axis(-1.0, 0.4, 6) for _ in range(dim))
        grid = fields.sample(field, axes)
        interp = Interpolator(grid)
        worst = 0.0
        for _ in range(10):
            base = tuple(int(rng.integers(1, a.count - 2)) for a in axes)
            elem = ElementRef(base)
            diff = np.abs(fields.oracle_coefficients(grid, elem)
                          - interp.coefficients(elem))
            worst = max(worst, float(diff.max()))
        rep.check(f"fused_oracle_dim{dim}", worst <= 1e-10,
                  max_abs_diff=f"{worst:.3e}")

    for dim in (3, 4):
        field = fields.trig_product_field(dim)
        axes = tuple(Axis(0.0, 0.5, 7) for _ in range(dim))
        grid = fields.sample(field, axes)
        interp = Interpolator(grid)
        worst = 0.0
        for _ in range(100):
            idx = tuple(int(rng.integers(1, a.count - 1)) for a in axes)
            p = [grid.axes[d].coordinate(idx[d]) for d in range(dim)]
            got = interp.eval(p)
            want = grid.vertex_value(idx)
            worst = max(worst, abs(got[0] - want) / max(abs(want), 1e-30))
        rep.check(f"vertex_reproduction_dim{dim}", worst <= 1e-12,
                  max_rel_err=f"{worst:.3e}")

    for dim in (3, 4):
        field = fields.tensor_polynomial_field(dim, 2, rng)
        axes = tuple(Axis(-1.0, 0.5, 6) for _ in range(dim))
        grid = fields.sample(field, axes)
        interp = Interpolator(grid)
        dom = grid.queryable_domain(BoundaryPolicy.STRICT)
        pts = np.stack([rng.uniform(lo, hi, 200) for lo, hi in dom], axis=1)
        res = interp.eval_batch(pts)
        verr = gerr = 0.0
        for i, p in enumerate(pts):
            tv = field.value(p)[0]
            tg = field.gradient(p)[0]
            verr = max(verr, abs(res.values[i, 0] - tv) / max(abs(tv), 1.0))
            gerr = max(gerr, float(np.max(np.abs(res.gradients[i, 0] - tg))
                                   / max(np.max(np.abs(tg)), 1.0)))
        rep.check(f"exactness_quadratic_dim{dim}",
                  verr <= 1e-10 and gerr <= 1e-10,
                  value_rel=f"{verr:.3e}", grad_rel=f"{gerr:.3e}")

        cubic = fields.tensor_polynomial_field(dim, 3, rng)
        cgrid = fields.sample(cubic, axes)
        cinterp = Interpolator(cgrid)
        cres = cinterp.eval_batch(pts)
        cerr = float(np.max(np.abs(
            cres.values[:, 0] - [cubic.value(p)[0] for p in pts])))
        rep.check(f"cubic_inexact_dim{dim}", cerr > 1e-6,
                  max_abs_err=f"{cerr:.3e}")

    for dim in (3, 4):
        field = fields.trig_product_field(dim)
        axes = tuple(Axis(0.0, 0.5, 7) for _ in range(dim))
        interp = Interpolator(fields.sample(field, axes))
        scan = fields.continuity_scan(interp, 400, seed=seed)
        rep.check(f"c1_continuity_dim{dim}",
                  scan.max_value_jump <= 1e-9
                  and scan.max_gradient_jump <= 1e-9,
                  value_jump=f"{scan.max_value_jump:.3e}",
                  gradient_jump=f"{scan.max_gradient_jump:.3e}")
        jump = _second_derivative_jump(interp, rng)
        rep.check(f"c2_jump_documented_dim{dim}", jump > 1e-9,
                  second_partial_jump=f"{jump:.3e}")

    err = _line_reduction_err(rng)
    rep.check("line_reduction", err <= 1e-12, max_abs_diff=f"{err:.3e}")
    err = _time_slice_err(rng)
    rep.check("time_slice_consistency", err <= 1e-12,
              max_abs_diff=f"{err:.3e}")

    study = fields.convergence_study(
        fields.trig_product_field(3), lo=np.zeros(3), hi=np.full(3, 3.0),
        base_count=9, n_levels=4, n_probes=40, seed=seed)
    rep.check("convergence_order",
              study.fitted_order >= 2.7 and study.strictly_decreasing,
              order=f"{study.fitted_order:.3f}",
              errors=",".join(f"{e:.3e}" for e in study.max_errors))


def _second_derivative_jump(interp: Interpolator, rng) -> float:
    """Largest d2f/dx2 jump across an x face, via the raw partial call."""
    (lo, hi) = interp.grid.element_base_range(interp.policy)[0]
    worst = 0.0
    for _ in range(50):
        base = [int(rng.integers(l, h + 1))
                for l, h in interp.grid.element_base_range(interp.policy)]
        base[0] = int(rng.integers(lo, hi))
        x_face = interp.grid.axes[0].coordinate(base[0] + 1)
        p = [x_face] + [
            interp.grid.axes[d].coordinate(base[d])
            + rng.uniform(0.2, 0.8) * interp.grid.axes[d].spacing
            for d in range(1, interp.dim)]
        eps = 1e-7 * interp.grid.axes[0].spacing
        orders = (2,) + (0,) * (interp.dim - 1)
        left = interp.derivative([p[0] - eps] + p[1:], orders)
        right = interp.derivative([p[0] + eps] + p[1:], orders)
        worst = max(worst, float(np.max(np.abs(left - right))))
    return worst


def _line_reduction_err(rng) -> float:
    field = fields.trig_product_field(3)
    axes = tuple(Axis(0.0, 0.5, 8) for _ in range(3))
    grid = fields.sample(field, axes)
    interp = Interpolator(grid)
    worst = 0.0
    for _ in range(50):
        j, k = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        i = int(rng.integers(1, 5))
        u = float(rng.uniform(0, 1))
        x = axes[0].coordinate(i) + u * axes[0].spacing
        got = interp.eval([x, axes[1].coordinate(j), axes[2].coordinate(k)])[0]
        f = [grid.vertex_value((i + o, j, k)) for o in (-1, 0, 1, 2)]
        want = fields.catmull_rom_1d(*f, u)
        worst = max(worst, abs(got - want))
    return worst


def _time_slice_err(rng) -> float:
    field3 = fields.trig_product_field(3)
    axes3 = tuple(Axis(0.0, 0.5, 6) for _ in range(3))
    grid3 = fields.sample(field3, axes3)

    field4 = fields.AnalyticField(
        4, 1,
        lambda p: field3.value(p[:3]),
        lambda p: np.concatenate([field3.gradient(p[:3]), [[0.0]]], axis=1),
        "t-independent extension")
    axes4 = axes3 + (Axis(0.0, 1.0, 5),)
    grid4 = fields.sample(field4, axes4)

    i3 = Interpolator(grid3)
    i4 = Interpolator(grid4)
    dom = grid3.queryable_domain(BoundaryPolicy.STRICT)
    worst = 0.0
    for _ in range(60):
        p3 = [float(rng.uniform(lo, hi)) for lo, hi in dom]
        t = float(rng.uniform(1.0, 3.0))
        r3 = i3.eval_with_gradient(p3)
        r4 = i4.eval_with_gradient(p3 + [t])
        worst = max(worst, float(np.max(np.abs(r3.values - r4.values))))
        worst = max(worst, float(np.max(np.abs(
            r3.gradient - r4.gradient[:, :3]))))
        worst = max(worst, float(np.max(np.abs(r4.gradient[:, 3]))))
    return worst


def _validate_user_grid(rep: _Report, grid: RegularGrid, seed: int):
    rng = np.random.default_rng(seed)
    interp = Interpolator(grid)
    try:
        scan = fields.continuity_scan(interp, 400, seed=seed)
    except ValueError:
        rep.line("SKIP", "c1_continuity", reason="too_few_elements")
    else:
        rep.check("c1_continuity",
                  scan.max_value_jump <= 1e-9
                  and scan.max_gradient_jump <= 1e-9,
                  value_jump=f"{scan.max_value_jump:.3e}",
                  gradient_jump=f"{scan.max_gradient_jump:.3e}")
    worst = 0.0
    for _ in range(100):
        idx = tuple(int(rng.integers(1, a.count - 1)) for a in grid.axes)
        p = [grid.axes[d].coordinate(idx[d]) for d in range(grid.dim)]
        got = interp.eval(p)
        for c in range(grid.components):
            want = grid.vertex_value(idx, c)
            worst = max(worst, abs(got[c] - want) / max(abs(want), 1e-30))
    rep.check("vertex_reproduction", worst <= 1e-12,
              max_rel_err=f"{worst:.3e}")
    worst = 0.0
    for _ in range(10):
        base = tuple(int(rng.integers(lo, hi + 1))
                     for lo, hi in grid.element_base_range(interp.policy))
        elem = ElementRef(base)
        diff = np.abs(fields.oracle_coefficients(grid, elem)
                      - interp.coefficients(elem))
        worst = max(worst, float(diff.max()))
    rep.check("fused_oracle", worst <= 1e-10, max_abs_diff=f"{worst:.3e}")
    for name in ("exactness_quadratic", "cubic_inexact", "line_reduction",
                 "time_slice_consistency", "convergence_order"):
        rep.line("SKIP", name, reason="needs_analytic_truth")


def cmd_validate(args) -> int:
    rep = _Report()
    print(f"validation seed={args.seed}")
    if args.grid:
        grid = _load_grid(args.grid)
        _validate_user_grid(rep, grid, args.seed)
    else:
        _validate_builtin(rep, args.seed)
    print(f"result: {'FAIL' if rep.failed else 'PASS'} "
          f"({rep.failed} failed)")
    return 1 if rep.failed else 0


# --------------------------------------------------------------- bench --

def _percentiles(dts):
    us = np.sort(np.asarray(dts)) * 1e6
    if us.size == 0:
        return "p50=n/a p90=n/a p99=n/a"

    def pick(q):
        return us[min(int(q * us.size), us.size - 1)]

    return (f"p50={pick(0.50):.1f}us p90={pick(0.90):.1f}us "
            f"p99={pick(0.99):.1f}us")


def cmd_bench(args) -> int:
    grid = _load_grid(args.grid)
    policy = _policy(args.policy)
    rng = np.random.default_rng(args.seed)
    dom = grid.queryable_domain(policy)
    n = args.n
    pts = np.stack([rng.uniform(lo, hi, n) for lo, hi in dom], axis=1) \
        if n else np.empty((0, grid.dim))
    print(f"bench: n={n} seed={args.seed} policy={policy.value}")
    if n == 0:
        print("value-only     : 0 points")
        print("value+gradient : 0 points")
        print("checksum_perpoint=0.0 checksum_batch=0.0")
        return 0

    interp = Interpolator(grid, policy)
    dts = np.empty(n)
    t0 = time.perf_counter()
    for i in range(n):
        s = time.perf_counter()
        interp.eval(pts[i])
        dts[i] = time.perf_counter() - s
    total = time.perf_counter() - t0
    print(f"value-only     : {n / total:.0f} points/s  {_percentiles(dts)}")

    pvals = np.empty((n, grid.components))
    pgrads = np.empty((n, grid.components, grid.dim))
    t0 = time.perf_counter()
    for i in range(n):
        s = time.perf_counter()
        r = interp.eval_with_gradient(pts[i])
        dts[i] = time.perf_counter() - s
        pvals[i] = r.values
        pgrads[i] = r.gradient
    total = time.perf_counter() - t0
    print(f"value+gradient : {n / total:.0f} points/s  {_percentiles(dts)}")

    t0 = time.perf_counter()
    res = interp.eval_batch(pts)
    total = time.perf_counter() - t0
    psum = float(np.sum(pvals)) + float(np.sum(pgrads))
    bsum = float(np.sum(res.values)) + float(np.sum(res.gradients))
    print(f"batch          : {n / total:.0f} points/s")
    print(f"checksum_perpoint={psum!r} checksum_batch={bsum!r}")
    return 0


# ---------------------------------------------------------------- main --

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspline",
        description="Local cubic interpolation of 3D/4D regular field maps "
                    "with analytic first derivatives.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_policy(p):
        p.add_argument("--policy", choices=[b.value for b in BoundaryPolicy],
                       default="strict",
                       help="boundary handling (default: strict)")

    p = sub.add_parser("info", help="describe a grid CSV file")
    p.add_argument("grid")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("query", help="interpolate at given points")
    p.add_argument("grid")
    p.add_argument("--point", action="append", metavar="X,Y,Z[,T]",
                   help="inline query point (repeatable)")
    p.add_argument("--points", metavar="FILE",
                   help="CSV file of query points (optional header)")
    p.add_argument("--out", metavar="FILE", help="write results CSV here")
    add_policy(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("sample", help="resample onto a new regular lattice")
    p.add_argument("grid")
    p.add_argument("--counts", required=True, metavar="NX,NY,NZ[,NT]",
                   help="vertices per axis of the new lattice")
    p.add_argument("--min", metavar="X,Y,Z[,T]",
                   help="lower corner (default: queryable minimum)")
    p.add_argument("--max", metavar="X,Y,Z[,T]",
                   help="upper corner (default: queryable maximum)")
    p.add_argument("--out", required=True, metavar="FILE")
    add_policy(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("validate", help="run the self-check suite")
    p.add_argument("grid", nargs="?",
                   help="optional user grid (skips analytic-truth checks)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="measure interpolation throughput")
    p.add_argument("grid")
    p.add_argument("--n", type=int, default=10000,
                   help="number of query points (default 10000)")
    p.add_argument("--seed", type=int, default=0)
    add_policy(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (_InputError, HypersplineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
