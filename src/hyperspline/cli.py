"""Command-line front end.

Subcommands:
    info      -- describe a grid file (axes, domains, element counts)
    query     -- interpolate values + gradients at given points
    sample    -- resample a field onto a new regular lattice
    validate  -- run the release checks of hyperspline.fields, or those
                 that need no analytic truth on a user grid
    bench     -- the harness of hyperspline.bench: throughput and
                 latency, and a bitwise check that batch and per-point
                 results agree, on a grid file or a named workload

``--point``, ``--min``, ``--max`` and ``--counts`` are read as a line
of a points file is, ``--counts`` as whole numbers of at least 4. The
first three take a value that starts with ``-`` (``--point -1.5,2,2``)
as ``--point=-1.5,2,2``; ``--policy`` goes to ``Interpolator`` as given.

Exit codes: 0 success, 1 a failed check (``validate``, or ``bench``'s
batch/per-point comparison), 2 usage or input error.
Importing this module loads the grid, interpolator and CSV layers and
compiles only the commands above; :mod:`hyperspline.fields` loads when
``validate`` or ``bench --workload`` runs, and :mod:`hyperspline.bench`
when ``bench`` runs.
Every command runs in one thread and acts on no environment variable
(``bench`` only reports the BLAS thread settings); a ``query``
evaluates its points with one ``eval_batch``.
"""

from __future__ import annotations

import argparse
import math
import sys
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
        rows = parse_rows(StringIO(text), want, 1)
    except HypersplineError:
        rows = ()
    if len(rows) != 1 or "\n" in text or "\r" in text:
        raise InvalidArgumentError(f"{what} must be comma-separated numbers, "
                                   f"got {text!r}, expected {want}")
    return rows[0].tolist()


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
    write_results_csv(sys.stdout if args.out is None else args.out, points,
                      res, grid.component_names)
    if args.out is not None:
        n_bad = int(np.sum(~res.ok))
        print(f"wrote {points.shape[0]} results to {args.out}"
              + (f" ({n_bad} out of domain)" if n_bad else ""))
    return 0


# -------------------------------------------------------------- sample --

def cmd_sample(args) -> int:
    grid = load_grid_csv(args.grid)
    interp = Interpolator(grid, args.policy)
    counts = _parse_floats(args.counts, grid.dim, "--counts")
    if not all(c >= 4 and c.is_integer() for c in counts):
        raise InvalidArgumentError(
            f"--counts must be {grid.dim} whole numbers of at least 4 (an "
            f"axis needs 4 points), got {args.counts!r}")
    counts = [int(c) for c in counts]
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

def _metric_text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(_metric_text, value))
    return f"{value:.3e}" if isinstance(value, float) else str(value)


def cmd_validate(args) -> int:
    _non_negative(args.seed, "--seed")
    print(f"validation seed={args.seed}")
    grid = load_grid_csv(args.grid) if args.grid else None
    # imported here: only validate runs the checks, and compiling and
    # running fields would add to the start-up of every other command
    from .fields import release_checks

    failed = 0
    for name, call in release_checks(grid, args.seed):
        if isinstance(call, str):
            status, metrics = "SKIP", {"reason": call}
        else:
            ok, metrics = call()
            status = "PASS" if ok else "FAIL"
            failed += not ok
        print(f"{status:4s} {name}" + "".join(
            f" {k}={_metric_text(v)}" for k, v in metrics.items()))
    print(f"result: {'FAIL' if failed else 'PASS'} ({failed} failed)")
    return 1 if failed else 0


# --------------------------------------------------------------- bench --

def cmd_bench(args) -> int:
    # imported here, as validate imports fields: no other command
    # compiles the harness
    from . import bench

    return bench.run(args)


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
    p.add_argument("grid", nargs="?",
                   help="grid CSV file, unless --workload names a grid")
    p.add_argument("--workload", metavar="NAME",
                   help="a fixed grid, point set and batch call count "
                        "built from an analytic field (an unknown NAME "
                        "lists the known ones)")
    p.add_argument("--json", metavar="DIR",
                   help="with --workload: also write the results to "
                        "DIR/BENCH_<workload>.json")
    p.add_argument("--n", type=int,
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
