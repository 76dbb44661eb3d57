"""Run one workload in a fresh interpreter; ``run.py`` starts this process.

Roles:
    setup    -- time the set-up and exit (a set-up time sample)
    measure  -- time the set-up, run operations for ``--seconds`` with
                tracing off and print the end-to-end metrics
    trace    -- set up with spans recorded, run a fixed number of
                operations untraced and then the same number traced, and
                print the per-layer metrics

Inputs and fixtures are made before anything is timed. The set-up time
runs from before ``import hyperspline`` to a ready interpolator, so the
operators are built from scratch. The last line of output is one JSON
object for ``run.py``; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import ``hyperspline`` from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hyperspline

    if Path(hyperspline.__file__).resolve().parent != src / "hyperspline":
        raise ImportError(f"hyperspline was imported from {hyperspline.__file__}, "
                          f"not from {src}")
    return hyperspline


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "HYPERSPLINE_THREADS": os.environ.get("HYPERSPLINE_THREADS", "unset"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# The shared host runs the same code in one of two speed states about
# 1.8x apart. A state holds from about a second to many minutes, so one
# run's mix of states differs from the next run's, and two sets of runs
# made minutes apart can differ by a third. Each run therefore also times
# a fixed reference kernel, for a tenth of the time after every
# operation, and divides every timing by the run's factor, mean kernel
# time over REF_S: the figures read as times on a host where the kernel
# takes REF_S (reference-normalised). run.py divides setup_s by the same
# factor. For a mean the mix cancels; a high percentile of a run that
# mixes the states reads somewhat above one that does not, but on a
# 2-CPU Xeon VM, over three sets of ten runs, the scaled percentiles
# spread at most 0.15 (IQR/median) and unscaled ones up to 0.25. Scaling each operation, or each
# set-up, by a kernel burst run right after it was tried and spread more:
# a short burst does not see the state the work before it ran in.
REF_S = 0.010
#: kernel time after each operation, as a share of the operation's time
REF_SHARE = 0.1


def _reference_kernel(a=np.arange(4096.0), m=np.eye(96) + 0.5):
    """Interpreter, numpy and formatting work, roughly the workloads' mix."""
    s, d = 0, {}
    for i in range(15000):
        s += i * i
        d[i & 255] = s
    for _ in range(60):
        np.sin(a) * a + a
    for _ in range(20):
        m @ m
    ",".join(repr(float(x)) for x in a[:1500])


def reference_times(budget_s: float) -> list:
    """Times of the reference kernel, run for about ``budget_s`` and at least once."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)
    return times


def timed_setup(wl) -> float:
    """Import the program and set the workload up; returns the seconds taken."""
    t0 = time.perf_counter()
    import_program()
    wl.setup()
    return time.perf_counter() - t0


def end_to_end(wl, calls, ref_factor: float) -> dict:
    """End-to-end metrics but setup_s, name -> (value, unit), over all timed calls of a run.

    Times are divided by ``ref_factor``. p90 rather than the median is
    the typical-call figure: the median jumps between the host's speed
    states, p90 stays nearer the slow one.
    """
    raw = np.array([c[0] for c in calls])
    dts = raw / ref_factor
    points = sum(c[1] for c in calls)
    p90, tail = np.percentile(dts, [90, wl.tail_pct]) * 1e3
    print(f"{len(calls)} calls, {points} points; call_tail_ms is p{wl.tail_pct} of "
          f"{len(calls)} call times")
    print(f"unscaled: {points / raw.sum():.6g} pts/s, call p50 {np.median(raw) * 1e3:.6g} ms, "
          f"p90 {p90 * ref_factor:.6g} ms, tail {tail * ref_factor:.6g} ms")
    return {
        "pts_per_s": (points / dts.sum(), "pts/s"),
        "call_p90_ms": (float(p90), "ms"),
        "call_tail_ms": (float(tail), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "value_err_max": (wl.gate.value_err_max, "rel"),
        "grad_err_max": (wl.gate.grad_err_max, "rel"),
    }


def run_ops(wl, n_ops):
    calls = []
    for _ in range(n_ops):
        calls += wl.op()
    return calls


def per_point_s(calls) -> float:
    return sum(c[0] for c in calls) / sum(c[1] for c in calls)


def measure(wl, seconds: float) -> tuple:
    """Operations with tracing off while another one fits in ``seconds``.

    Returns the timed calls and the reference kernel times.
    """
    calls, ref_times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        calls += wl.op()
        now = time.perf_counter()
        ref_times += reference_times(REF_SHARE * (now - t0))
        if time.perf_counter() - start + (now - t0) > seconds:
            break
    return calls, ref_times


def trace(wl, rec) -> dict:
    """Fixed operations untraced, then as many traced; per-layer metrics."""
    untraced = run_ops(wl, wl.trace_ops)
    rec.phase = "measure"
    wl.tracing = rec
    traced = run_ops(wl, wl.trace_ops)
    layers, dominant, buckets, root_time = spans.layer_metrics(rec)
    dim = wl.spec.dim
    layers["interpolator.cache_mb"] = (wl.resident_cells * 3 * 4 ** dim * 8 / 1e6, "MB")
    layers["trace.overhead_frac"] = (per_point_s(traced) / per_point_s(untraced) - 1.0,
                                     "ratio")
    print(f"traced {wl.trace_ops} ops after {wl.trace_ops} untraced; "
          f"{len(rec.names)} spans; dominant layer {dominant} "
          f"({layers['trace.dominant_share'][0]:.3f} of {root_time:.4f} s in top-level calls)")
    print("self time by layer (s): " + ", ".join(
        f"{k}={v:.4f}" for k, v in sorted(buckets.items(), key=lambda kv: -kv[1])))
    print(f"interpolator.cache_mb is computed as cells x 3 x 4^{dim} x 8 bytes "
          f"({wl.resident_cells} cells)")
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.work_dir)
    wl.prepare()
    rec = spans.Recorder(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    setup = None
    if args.role == "trace":
        import_program()
        with rec:
            wl.setup()
    else:
        setup = timed_setup(wl)
        print(f"set-up {setup:.4f} s")
        if args.role == "setup":
            print(json.dumps({"setup": setup}))
            return 0

    env = environment()
    print("env " + json.dumps(env))
    print(f"workload {wl.name}: {wl.why}")
    ref_factor = None
    if args.role == "measure":
        calls, ref_times = measure(wl, args.seconds)
        ref_factor = float(np.mean(ref_times)) / REF_S
        print(f"times are reference-normalised: divided by {ref_factor:.4f}, the mean of "
              f"{len(ref_times)} reference kernel times / {REF_S * 1e3:g} ms")
        metrics = end_to_end(wl, calls, ref_factor)
    else:
        metrics = trace(wl, rec)
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        rec.write(trace_dir / f"trace-{wl.name}.csv",
                  {"workload": wl.name, "seed": args.seed, "env": env})

    gate = wl.gate
    frac = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"failed_frac {frac!r} ({gate.failed} of {gate.attempted} point evaluations"
          + (f"; {dict(gate.reasons)}" if gate.reasons else "") + ")")
    print(json.dumps({"attempted": gate.attempted, "failed": gate.failed,
                      "metrics": metrics, "setup": setup, "ref_factor": ref_factor}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
