"""``hyperspline bench``: points/s and per-call latency of ``eval``,
``eval_with_gradient`` and ``eval_batch`` on a grid file or a named
workload, and a bitwise check that batch and per-point results agree.
Only ``hyperspline.cli.cmd_bench`` imports it, so no other command
compiles it."""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

from .cli import _fits_one_array, _non_negative
from .errors import InvalidArgumentError
from .grid import Axis, BoundaryPolicy, RegularGrid, lattice
from .interpolator import Interpolator
from .io import _open_text, load_grid_csv

_AXES_4D = ((-1.3, 0.2, 14),) * 3 + ((0.0, 0.25, 14),)

#: ``--workload`` names, with perfbench's grid shapes and point counts:
#: the ``(origin, spacing, count)`` of each axis, sampled from the
#: quadrupole field of :mod:`hyperspline.fields` (its t = 0 slice in 3D)
#: with 3 components; the points: a number of uniform ones, None for one
#: in every valid cell, or ``(tracks, steps)`` for that many tracks of
#: that many points each; and how many timed ``eval_batch`` calls of
#: them to make.
WORKLOADS = {
    "sweep4d-cold": (_AXES_4D, None, 20),
    "swarm3d-warm": (((-1.95, 0.1, 40),) * 3, 4096, 100),
    "track4d-scalar": (_AXES_4D, (8, 500), 20),
}


def _machine() -> str:
    """CPU count, numpy, BLAS build and threads, Python: the kernel's
    speed and its last-bit rounding depend on them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # older numpy, or a build without BLAS
        blas = "unknown"
    threads = " ".join(f"{k}={os.environ.get(k, 'unset')}"
                       for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return (f"machine: cpus={os.cpu_count()} numpy={np.__version__} "
            f"blas={blas} python={platform.python_version()} {threads}")


def _uniform_points(interp, n: int, rng) -> np.ndarray:
    dom = interp.grid.queryable_domain(interp.policy)
    return np.stack([rng.uniform(lo, hi, n) for lo, hi in dom], axis=1)


def _tracks(grid, tracks: int, steps: int, rng) -> np.ndarray:
    """``tracks`` straight tracks of ``steps`` 4D points, one track after
    another, as a particle tracker queries them: each starts at a uniform
    place, moves 0.006 per point in space along a uniform direction and
    0.004 in t (perfbench's step sizes), and reflects off the faces of
    the strict domain, so every point is queryable under either
    policy."""
    dom = np.array(grid.queryable_domain(BoundaryPolicy.STRICT))
    lo, hi = dom.T
    span = hi - lo
    direction = rng.standard_normal((tracks, 3))
    velocity = np.column_stack([
        0.006 * direction / np.linalg.norm(direction, axis=1, keepdims=True),
        np.full(tracks, 0.004)])
    path = (rng.uniform(0.0, 1.0, (tracks, 1, 4)) * span
            + np.arange(steps)[:, None] * velocity[:, None])
    # fold onto [0, 2 span), then the upper half back onto [0, span]
    path = span - np.abs(span - np.mod(path, 2 * span))
    return np.clip(lo + path, lo, hi).reshape(-1, 4)


def _workload(name: str, policy, rng):
    """The interpolator, points and batch call count of ``--workload
    name``."""
    if name not in WORKLOADS:
        raise InvalidArgumentError(f"unknown workload {name!r}; known: "
                                   f"{', '.join(sorted(WORKLOADS))}")
    # imported here: only a workload samples an analytic field
    from . import fields

    axes, n, calls = WORKLOADS[name]
    axes = tuple(Axis(*a) for a in axes)
    field = fields.quadrupole_field()
    at = lattice(axes)
    if len(axes) == 3:  # the t = 0 slice
        at = np.column_stack([at, np.zeros(len(at))])
    grid = RegularGrid(axes, field.value(at), components=field.components)
    interp = Interpolator(grid, policy)
    if isinstance(n, tuple):
        return interp, _tracks(grid, *n, rng), calls
    if n is not None:
        return interp, _uniform_points(interp, n, rng), calls
    # one point at a uniform place in each valid cell, cells in random order
    cells = rng.permutation(np.stack(np.meshgrid(
        *[np.arange(lo, hi + 1) for lo, hi in
          grid.element_base_range(interp.policy)], indexing="ij"),
        axis=-1).reshape(-1, grid.dim))
    origins, spacings = np.array([(a.origin, a.spacing) for a in axes]).T
    return (interp, origins + (cells + rng.uniform(0.0, 1.0, cells.shape))
            * spacings, calls)


def _inputs(args):
    """The interpolator, points, batch call count and spec of a run on a
    grid file or on ``--workload``, after every usage check."""
    if (args.grid is None) == (args.workload is None):
        raise InvalidArgumentError(
            "bench takes a grid file or --workload NAME, one of the two")
    if args.workload is None:
        if args.json is not None:
            raise InvalidArgumentError("--json needs --workload")
        interp = Interpolator(load_grid_csv(args.grid), args.policy)
        n = _fits_one_array(
            _non_negative(10000 if args.n is None else args.n, "--n"),
            interp.grid.dim, "--n", "points")
        rng = np.random.default_rng(_non_negative(args.seed, "--seed"))
        return (interp, _uniform_points(interp, n, rng), 1,
                {"n": n, "seed": args.seed, "policy": interp.policy.value})
    if args.n is not None:
        raise InvalidArgumentError(
            "--n does not apply to --workload, whose point count is fixed")
    if args.json is not None and not os.path.isdir(args.json):
        raise InvalidArgumentError(
            f"--json takes a directory, got {args.json!r}")
    rng = np.random.default_rng(_non_negative(args.seed, "--seed"))
    interp, pts, calls = _workload(args.workload, args.policy, rng)
    return interp, pts, calls, {
        "workload": args.workload,
        "grid": "x".join(map(str, interp.grid.counts
                             + (interp.grid.components,))),
        "axes": WORKLOADS[args.workload][0], "field": "quadrupole",
        "points": len(pts), "seed": args.seed,
        "policy": interp.policy.value, "batch_calls": calls}


def _measure(interp, pts, calls: int) -> dict:
    """Time ``eval`` and ``eval_with_gradient`` on each point and
    ``calls`` ``eval_batch`` calls of all of them, then compare batch and
    per-point results bit for bit. Prints, and returns, the report."""
    report, per_point = {}, []
    for name, call, args, per_call in (
            ("value-only", interp.eval, pts, 1),
            ("value+gradient", interp.eval_with_gradient, pts, 1),
            ("batch", interp.eval_batch, [pts] * calls, len(pts))):
        dts = np.empty(len(args))
        for i, a in enumerate(args):
            s = time.perf_counter()
            res = call(a)
            dts[i] = time.perf_counter() - s
            if name == "value+gradient":
                per_point.append(res)
        total = float(dts.sum())
        rate = per_call * len(dts) / total if total > 0 else 0.0
        us = np.sort(dts) * 1e6  # p50, p90 and p99; None for no calls
        pcts = {f"p{q}": float(us[min(int(q / 100 * us.size), us.size - 1)])
                if us.size else None for q in (50, 90, 99)}
        report[name] = {"pts_per_s": rate, "calls": len(dts),
                        **{f"{k}_us": v for k, v in pcts.items()}}
        spread = "" if len(dts) == 1 else "  " + " ".join(  # one call: none
            f"{k}=n/a" if v is None else f"{k}={v:.1f}us"
            for k, v in pcts.items())
        print(f"{name:15s}: {rate:.0f} points/s{spread}")
    # res is the last eval_batch result: calls is at least 1
    values = np.reshape([r.values for r in per_point], res.values.shape)
    grads = np.reshape([r.gradient for r in per_point], res.gradients.shape)
    psum = float(np.sum(values)) + float(np.sum(grads))
    bsum = float(np.sum(res.values)) + float(np.sum(res.gradients))
    print(f"checksum_perpoint={psum!r} checksum_batch={bsum!r}")
    # the guarantee rests on the BLAS build, so check it on this one
    match = (values.tobytes() == res.values.tobytes()
             and grads.tobytes() == res.gradients.tobytes())
    print(f"batch_matches_pointwise={'yes' if match else 'NO'}")
    return {"paths": report, "checksum_perpoint": psum,
            "checksum_batch": bsum, "batch_matches_pointwise": match}


def run(args) -> int:
    """The ``bench`` command: 0, or 1 if batch and per-point differ."""
    interp, pts, calls, spec = _inputs(args)
    print("bench: " + " ".join(f"{k}={v}" for k, v in spec.items()
                               if k != "axes"))
    machine = _machine()
    print(machine)
    report = _measure(interp, pts, calls)
    if args.json is not None:
        path = os.path.join(args.json, f"BENCH_{args.workload}.json")
        with _open_text(path, "w") as fh:
            fh.write(json.dumps({"spec": spec, "machine": machine, **report},
                                indent=2) + "\n")
        print(f"wrote {path}")
    return 0 if report["batch_matches_pointwise"] else 1
