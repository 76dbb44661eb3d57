"""Command-line front end.

Subcommands:
    info      -- describe a grid file (axes, domains, element counts)
    query     -- interpolate values + gradients at given points
    sample    -- resample a field onto a new regular lattice
    validate  -- run the release checks of hyperspline.fields, or those
                 that need no analytic truth on a user grid
    bench     -- throughput / latency measurement, and a bitwise check
                 that batch and per-point results agree

``--point``, ``--min`` and ``--max`` are read as a line of a points
file is, and take a value that starts with ``-`` (``--point -1.5,2,2``)
as ``--point=-1.5,2,2``; ``--policy`` goes to ``Interpolator`` as given.

Exit codes: 0 success, 1 a failed check (``validate``, or ``bench``'s
batch/per-point comparison), 2 usage or input error.
Importing this module loads the grid, interpolator and CSV layers;
:mod:`hyperspline.fields` loads only when ``validate`` runs.
The environment variable ``HYPERSPLINE_THREADS`` sets the batch worker
count: serial when unset, one worker per CPU the process may use for 0,
n for n, but never more workers than those CPUs or a batch's chunks.
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import sys
import time
from functools import partial
from io import StringIO

import numpy as np

from .errors import HypersplineError, InvalidArgumentError
from .grid import AXIS_NAMES, Axis, BoundaryPolicy, RegularGrid, lattice
from .interpolator import Interpolator
from .io import (
    load_grid_csv,
    load_points_csv,
    parse_rows,
    write_grid_csv,
    write_results_csv,
)


def _parse_floats(text: str, want: int, what: str) -> list:
    """``text`` read as one line of a points file with ``want`` columns."""
    try:
        rows = parse_rows(StringIO(text), want, what, 1)
    except HypersplineError:
        rows = ()
    if len(rows) != 1 or "\n" in text or "\r" in text:
        raise InvalidArgumentError(f"{what} must be comma-separated numbers, "
                                   f"got {text!r}, expected {want}")
    return rows[0].tolist()


def _parse_ints(text: str, what: str):
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise InvalidArgumentError(
            f"{what} must be comma-separated integers, got {text!r}") from None


def _non_negative(value: int, flag: str) -> int:
    if value < 0:
        raise InvalidArgumentError(
            f"{flag} must be a non-negative integer, got {value}")
    return value


def _fits_one_array(count: int, width: int, flag: str, what: str) -> int:
    """``count``, if ``count`` rows of ``width`` float64s fit one numpy
    array; numpy raises a plain ValueError for more."""
    limit = np.iinfo(np.intp).max // (8 * width)
    if count > limit:
        raise InvalidArgumentError(
            f"{flag} asks for {count} {what}, more than one array holds "
            f"(at most {limit})")
    return count


def _read_points(args, dim: int) -> np.ndarray:
    rows = [_parse_floats(spec, dim, "--point") for spec in args.point or []]
    points = np.array(rows).reshape(len(rows), dim)
    if args.points:
        points = np.concatenate([points, load_points_csv(args.points, dim)])
    if not len(points):
        raise InvalidArgumentError(
            "no query points given (use --point or --points)")
    return points


# ---------------------------------------------------------------- info --

def cmd_info(args) -> int:
    grid = load_grid_csv(args.grid)
    print(f"grid: {args.grid}")
    print(f"dim: {grid.dim}   components: {grid.components} "
          f"({','.join(grid.component_names)})")
    for d, a in enumerate(grid.axes):
        print(f"axis {AXIS_NAMES[d]}: origin={a.origin!r} "
              f"spacing={a.spacing!r} count={a.count}")
    valid = ", ".join(f"{p.value}={int(np.prod(grid.element_counts(p)))}"
                      for p in BoundaryPolicy)
    print(f"elements: {int(np.prod(grid.element_counts()))} total; "
          f"valid: {valid}")
    for pol in BoundaryPolicy:
        dom = grid.queryable_domain(pol)
        spans = ", ".join(
            f"{AXIS_NAMES[d]} in [{lo!r}, {hi!r}]"
            for d, (lo, hi) in enumerate(dom))
        print(f"queryable {pol.value}: {spans}")
    print(f"memory: {grid._samples.nbytes / 1024:.1f} KiB of samples, "
          f"ghost layers included")
    return 0


# --------------------------------------------------------------- query --

def cmd_query(args) -> int:
    grid = load_grid_csv(args.grid)
    interp = Interpolator(grid, args.policy)
    points = _read_points(args, grid.dim)
    res = interp.eval_batch(points)
    write_results_csv(args.out or sys.stdout, points, res,
                      grid.component_names)
    if args.out:
        n_bad = int(np.sum(~res.ok))
        print(f"wrote {points.shape[0]} results to {args.out}"
              + (f" ({n_bad} out of domain)" if n_bad else ""))
    return 0


# -------------------------------------------------------------- sample --

def cmd_sample(args) -> int:
    grid = load_grid_csv(args.grid)
    interp = Interpolator(grid, args.policy)
    counts = _parse_ints(args.counts, "--counts")
    if len(counts) != grid.dim or min(counts) < 4:
        raise InvalidArgumentError(
            f"--counts must be {grid.dim} integers of at least 4 (an axis "
            f"needs 4 points), got {args.counts!r}")
    _fits_one_array(math.prod(counts), grid.dim, "--counts", "vertices")
    dom = np.array(grid.queryable_domain(interp.policy))
    lo = (_parse_floats(args.min, grid.dim, "--min") if args.min
          else dom[:, 0].tolist())
    hi = (_parse_floats(args.max, grid.dim, "--max") if args.max
          else dom[:, 1].tolist())
    for d, (dmin, dmax) in enumerate(dom.tolist()):
        if not (dmin <= lo[d] < hi[d] <= dmax):
            raise InvalidArgumentError(
                f"target range [{lo[d]!r}, {hi[d]!r}] on axis "
                f"{AXIS_NAMES[d]} outside queryable [{dmin!r}, {dmax!r}]")
    axes = tuple(Axis(lo[d], (hi[d] - lo[d]) / (counts[d] - 1), counts[d])
                 for d in range(grid.dim))
    # a last vertex may pass the domain's end by an ulp: clip it back
    res = interp.eval_batch(np.clip(lattice(axes), dom[:, 0], dom[:, 1]))
    out_grid = RegularGrid(axes, res.values.reshape(-1),
                           components=grid.components,
                           component_names=grid.component_names)
    write_grid_csv(args.out, out_grid)
    print(f"wrote {len(res.ok)} vertices to {args.out}")
    return 0


# ------------------------------------------------------------ validate --

class _Report:
    def __init__(self):
        self.failed = 0

    def line(self, status, name, **metrics):
        body = " ".join(f"{k}={_metric_text(v)}"
                        for k, v in metrics.items())
        print(f"{status:4s} {name}" + (f" {body}" if body else ""))
        if status == "FAIL":
            self.failed += 1


def _metric_text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(_metric_text, value))
    return f"{value:.3e}" if isinstance(value, float) else str(value)


def _validate_rows(grid, seed: int):
    """The report's ``(name, call)`` rows in order. ``call()`` runs one
    check of :mod:`hyperspline.fields` and returns ``(ok, metrics)``; a
    string in its place is the reason the check is skipped."""
    # imported here: only validate runs the checks, and compiling and
    # running fields would add to the start-up of every other command
    from . import fields

    if grid is not None:
        interp = Interpolator(grid)
        return [
            ("c1_continuity", "too_few_elements"
             if max(grid.element_counts(interp.policy)) == 1
             else partial(fields.check_c1_continuity, interp, 400, seed)),
            ("vertex_reproduction",
             partial(fields.check_vertex_reproduction, interp, 100, seed)),
            ("fused_oracle",
             partial(fields.check_fused_oracle, interp, 10, seed)),
        ] + [(name, "needs_analytic_truth") for name in (
            "exactness_quadratic", "cubic_inexact", "line_reduction",
            "time_slice_consistency", "convergence_order")]
    dims = (3, 4)
    rng = np.random.default_rng(seed)
    poly = {d: Interpolator(fields.sample(
        fields.tensor_polynomial_field(d, 3, rng), [Axis(-1.0, 0.4, 6)] * d))
        for d in dims}
    trig = {d: Interpolator(fields.sample(
        fields.trig_product_field(d), [Axis(0.0, 0.5, 7)] * d))
        for d in dims}
    rows = [(f"operators_exact_dim{d}",
             partial(fields.check_operators_exact, d)) for d in dims]
    rows += [(f"fused_oracle_dim{d}",
              partial(fields.check_fused_oracle, poly[d], 10, seed))
             for d in dims]
    rows += [(f"vertex_reproduction_dim{d}",
              partial(fields.check_vertex_reproduction, trig[d], 100, seed))
             for d in dims]
    for d in dims:
        rows += [(f"exactness_quadratic_dim{d}",
                  partial(fields.check_quadratic_exactness, d, 200, seed)),
                 (f"cubic_inexact_dim{d}",
                  partial(fields.check_cubic_inexactness, d, 200, seed))]
    for d in dims:
        rows += [(f"c1_continuity_dim{d}",
                  partial(fields.check_c1_continuity, trig[d], 400, seed)),
                 (f"c2_jump_documented_dim{d}",
                  partial(fields.check_c2_jump, trig[d], 50, seed))]
    return rows + [
        ("line_reduction", partial(fields.check_line_reduction, 50, seed)),
        ("time_slice_consistency",
         partial(fields.check_time_slice, 60, seed)),
        ("convergence_order",
         partial(fields.check_convergence_order, seed))]


def cmd_validate(args) -> int:
    _non_negative(args.seed, "--seed")
    rep = _Report()
    print(f"validation seed={args.seed}")
    grid = load_grid_csv(args.grid) if args.grid else None
    for name, call in _validate_rows(grid, args.seed):
        if isinstance(call, str):
            rep.line("SKIP", name, reason=call)
        else:
            ok, metrics = call()
            rep.line("PASS" if ok else "FAIL", name, **metrics)
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


def _machine() -> str:
    """CPU count, numpy version, BLAS build and Python version: the
    kernel's speed and its last-bit rounding depend on them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # older numpy, or a build without BLAS
        blas = "unknown"
    return (f"machine: cpus={os.cpu_count()} numpy={np.__version__} "
            f"blas={blas} python={platform.python_version()}")


def _time_each(call, pts):
    """``call`` on each point: the results, per-call and total seconds."""
    out, dts = [], np.empty(len(pts))
    t0 = time.perf_counter()
    for i, p in enumerate(pts):
        s = time.perf_counter()
        out.append(call(p))
        dts[i] = time.perf_counter() - s
    return out, dts, time.perf_counter() - t0


def cmd_bench(args) -> int:
    grid = load_grid_csv(args.grid)
    interp = Interpolator(grid, args.policy)
    n = _fits_one_array(_non_negative(args.n, "--n"), grid.dim, "--n",
                        "points")
    rng = np.random.default_rng(_non_negative(args.seed, "--seed"))
    dom = grid.queryable_domain(interp.policy)
    pts = np.stack([rng.uniform(lo, hi, n) for lo, hi in dom], axis=1)
    print(f"bench: n={n} seed={args.seed} policy={interp.policy.value}")
    print(_machine())
    _, dts, total = _time_each(interp.eval, pts)
    print(f"value-only     : {n / total:.0f} points/s  {_percentiles(dts)}")
    out, dts, total = _time_each(interp.eval_with_gradient, pts)
    print(f"value+gradient : {n / total:.0f} points/s  {_percentiles(dts)}")
    t0 = time.perf_counter()
    res = interp.eval_batch(pts)
    total = time.perf_counter() - t0
    values = np.array([r.values for r in out]).reshape(res.values.shape)
    grads = np.array([r.gradient for r in out]).reshape(res.gradients.shape)
    psum = float(np.sum(values)) + float(np.sum(grads))
    bsum = float(np.sum(res.values)) + float(np.sum(res.gradients))
    print(f"batch          : {n / total:.0f} points/s")
    print(f"checksum_perpoint={psum!r} checksum_batch={bsum!r}")
    # the guarantee rests on the BLAS build, so check it on this one
    match = (values.tobytes() == res.values.tobytes()
             and grads.tobytes() == res.gradients.tobytes())
    print(f"batch_matches_pointwise={'yes' if match else 'NO'}")
    return 0 if match else 1


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


_COORDINATE_FLAGS = ("--point", "--min", "--max")


def _attach_values(argv) -> list:
    """``--point -1.5,2,2`` as ``--point=-1.5,2,2``: argparse reads a
    separate value that starts with ``-`` and is not a plain number as
    an option, so a coordinate flag's next argument is attached to it."""
    out = []
    for arg in argv:
        if out and out[-1] in _COORDINATE_FLAGS and arg.startswith("-"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_values(argv))
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (HypersplineError, MemoryError) as exc:  # MemoryError: --n 1e15
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
