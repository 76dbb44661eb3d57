"""hyperspline benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep4d-cold, swarm3d-warm, track4d-scalar, query3d-csv (see
``workloads.py`` for why each exists). Every run starts the workload in
fresh interpreters (``worker.py``) with BLAS pinned to one thread and
``HYPERSPLINE_THREADS`` unset, imports the program from ``src/`` of this
checkout and writes only under ``.perfbench/`` here.

Inputs and fixtures are made first, outside every timing.
``--trace 0`` times the set-up in five fresh interpreters, two before
the measured run, the measured run's own and two after, and measures
for ``--seconds`` seconds with tracing off. All timings, ``setup_s``
(the median set-up) too, are scaled by a reference kernel timed between
the measured operations (see ``worker.py``); the unscaled figures are
printed too.
``--trace 1`` runs a fixed number of operations untraced and the same
number with spans on every layer, and reports per-layer metrics; spans
go to ``.perfbench/trace-<workload>.csv``.

The last line of output is the JSON result: ``correct``, ``attempted``,
``failed`` (point evaluations, judged by ``gate.py``) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HYPERSPLINE_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def run_worker(args, role: str, work_dir: str, deadline: float):
    """Run ``worker.py``; returns its output lines, its JSON result (or None) and exit code."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--role", role, "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                              cwd=ROOT, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        return out.splitlines(), None, "timeout"
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return lines, result, proc.returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hyperspline" / "__init__.py").is_file():
        print(f"error: no hyperspline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        WORKLOADS[args.workload](args.seed, work_dir).prepare()  # fixtures, before timing
        main_role = "trace" if args.trace else "measure"
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        # half of the extra set-up samples before the measured run, half after
        roles = ["setup"] * (extra // 2) + [main_role] + ["setup"] * (extra - extra // 2)
        results = []
        for role in roles:
            lines, result, code = run_worker(args, role, work_dir, deadline)
            if code != 0 or result is None:
                print("\n".join(lines))
                print(f"error: {role} run exited with code {code}", file=sys.stderr)
                return 1
            results.append(result)
            if role == main_role:
                report, measured = lines[:-1], result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("\n".join(report))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in measured["metrics"].items()}
    if not args.trace:
        setups = [r["setup"] for r in results]
        factor = measured["ref_factor"]
        metrics["setup_s"] = {"value": statistics.median(setups) / factor, "unit": "s"}
        print(f"setup_s is the median of {len(setups)} fresh-interpreter set-ups, "
              f"/ {factor:.4f} (reference factor): " + ", ".join(f"{s:.4f}" for s in setups)
              + " s unscaled")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": measured["failed"] == 0, "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
