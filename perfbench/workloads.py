"""The four benchmark workloads, all serial and single-process.

Each workload makes its inputs from the seed and writes its fixtures in
``prepare``, before any timing starts. ``setup`` is the program's own
set-up, timed as ``setup_s``: building the grid, the interpolator and
its operators, and warming the cache where the workload needs it. Then
``op()`` runs one operation through the public API, checks it with the
gate outside the timed region and returns ``(seconds, points)`` for
every timed call. ``tracing`` is entered around the timed calls only,
so the gate's own calls leave no spans.
"""

from __future__ import annotations

import contextlib
import io
import os
import time

import numpy as np

from gate import Gate
from inputs import (
    GridSpec,
    make_field,
    make_grid,
    rng_for,
    taylor_step,
    trajectories,
    vertex_values,
    write_grid_csv,
    write_points_csv,
)


def _scalar_results(interp, pts):
    """Per-point ``eval_with_gradient`` results; rows that raised are NaN."""
    m, dim = 3, pts.shape[1]
    values = np.full((len(pts), m), np.nan)
    grads = np.full((len(pts), m, dim), np.nan)
    raised = np.zeros(len(pts), dtype=bool)
    for i, p in enumerate(pts):
        try:
            r = interp.eval_with_gradient(p)
        except Exception:
            raised[i] = True
            continue
        values[i], grads[i] = r.values, r.gradient
    return values, grads, raised


class Workload:
    name = ""
    why = ""
    #: percentile of call times reported as call_tail_ms: the highest with
    #: at least ten calls beyond it in a run. Where a run makes too few
    #: calls for any (sweep4d-cold and query3d-csv make about ten), p90:
    #: the slowest of so few calls jumps with the host's speed state
    tail_pct = 90
    #: operations in each half of a traced run (fixed, so counts repeat)
    trace_ops = 1
    full: dict = {}
    tiny: dict = {}

    def __init__(self, seed: int, work_dir: str, tiny: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.size = self.tiny if tiny else self.full
        self.tracing = contextlib.nullcontext()
        self.resident_cells = 0

    def prepare(self):
        """Make the inputs from the seed and write the fixtures (not timed)."""
        raise NotImplementedError

    def setup(self):
        """Program set-up, timed as ``setup_s``."""
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def timed_batch(self, interp, pts):
        """Timed ``eval_batch``, then the gate with a scalar-path subsample.

        Returns the call's seconds, its result (None if it raised) and the
        mask of failed points.
        """
        n = len(pts)
        t0 = time.perf_counter()
        try:
            with self.tracing:
                t0 = time.perf_counter()
                res = interp.eval_batch(pts)
                dt = time.perf_counter() - t0
        except Exception as exc:
            bad = self.gate.raised(n, exc)
            self.gate.tally(bad)
            return time.perf_counter() - t0, None, bad
        bad = self.gate.check(pts, res.values, res.gradients, res.ok)
        idx = self.check_rng.choice(n, self.size["checked"], replace=False)
        values, grads, raised = _scalar_results(interp, pts[idx])
        bad[idx] |= raised | self.gate.bitwise(
            (res.values[idx], values), (res.gradients[idx], grads))
        self.gate.tally(bad)
        return dt, res, bad


class Sweep4dCold(Workload):
    name = "sweep4d-cold"
    why = ("one eval_batch of one point per cell on a fresh 4D 14^4x3 map "
           "builds every cell once, so gather and coefficient build run at full load")
    # one point in each of the 11^4 queryable cells, in random order
    full = dict(count=14, checked=200)
    tiny = dict(count=12, points=400, checked=20)

    def prepare(self):
        n = self.size["count"]
        self.spec = GridSpec((n,) * 4, (0.2, 0.2, 0.2, 0.25), (1, 1, 1, 1))
        self.field = make_field(self.spec, self.seed)
        self.values = vertex_values(self.field)
        self.points = self.spec.stratified(rng_for(self.seed, 1))[:self.size.get("points")]
        self.check_rng = rng_for(self.seed, 2)
        self.gate = Gate(self.field)

    def setup(self):
        from hyperspline import Interpolator

        self.grid = make_grid(self.spec, self.values)
        Interpolator(self.grid)  # builds the dim-4 operators

    def op(self):
        from hyperspline import Interpolator

        interp = Interpolator(self.grid)
        dt, _, _ = self.timed_batch(interp, self.points)
        self.resident_cells = interp.cache_size()
        return [(dt, len(self.points))]


class Swarm3dWarm(Workload):
    name = "swarm3d-warm"
    why = ("closed-loop 4096-particle swarm on a fully cached 3D 40^3x3 "
           "map: cache hit ratio 1, batch self time dominates")
    tail_pct = 95
    trace_ops = 60
    full = dict(count=40, periods=2, particles=4096, checked=8)
    tiny = dict(count=12, periods=1, particles=64, checked=4)
    step = 0.05  # about half a cell per call at the field's typical speed

    def prepare(self):
        n = self.size["count"]
        self.spec = GridSpec((n,) * 3, (0.1,) * 3, (self.size["periods"],) * 3)
        self.field = make_field(self.spec, self.seed)
        self.values = vertex_values(self.field)
        self.pos = self.spec.uniform(rng_for(self.seed, 1), self.size["particles"])
        self.check_rng = rng_for(self.seed, 2)
        self.gate = Gate(self.field)

    def setup(self):
        from hyperspline import Interpolator

        self.interp = Interpolator(make_grid(self.spec, self.values))
        self.interp.precompute_all()

    def op(self):
        pts = self.pos
        dt, res, bad = self.timed_batch(self.interp, pts)
        if res is not None:
            moved = self.spec.wrap(taylor_step(pts, res.values, res.gradients, self.step))
            self.pos = np.where(bad[:, None], pts, moved)
        self.resident_cells = self.interp.cache_size()
        return [(dt, len(pts))]


class Track4dScalar(Workload):
    name = "track4d-scalar"
    why = ("closed-loop eval_with_gradient calls along 4D trajectories "
           "from a cold cache: per-call overhead at p90, cell builds at p99")
    tail_pct = 99
    trace_ops = 3
    full = dict(count=14, trajectories=8, steps=500, checked=256)
    tiny = dict(count=12, trajectories=2, steps=20, checked=8)
    # space and time steps, chosen so about 7% of calls enter a new cell
    step = 0.006
    time_step = 0.004

    def prepare(self):
        n = self.size["count"]
        self.spec = GridSpec((n,) * 4, (0.2, 0.2, 0.2, 0.25), (1, 1, 1, 1))
        self.field = make_field(self.spec, self.seed)
        self.values = vertex_values(self.field)
        self.rng = rng_for(self.seed, 1)
        self.gate = Gate(self.field)

    def setup(self):
        from hyperspline import Interpolator

        self.grid = make_grid(self.spec, self.values)
        Interpolator(self.grid)  # builds the dim-4 operators

    def op(self):
        """One round: fresh interpolator, several trajectories one call at a time."""
        from hyperspline import Interpolator

        interp = Interpolator(self.grid)
        total = self.size["trajectories"] * self.size["steps"]
        pts = np.empty((total, 4))
        values = np.full((total, 3), np.nan)
        grads = np.full((total, 3, 4), np.nan)
        raised = np.zeros(total, dtype=bool)
        calls = []
        starts = self.spec.uniform(self.rng, self.size["trajectories"])
        i = 0
        for p in starts:
            for _ in range(self.size["steps"]):
                pts[i] = p
                t0 = time.perf_counter()
                try:
                    with self.tracing:
                        t0 = time.perf_counter()
                        r = interp.eval_with_gradient(p)
                        calls.append((time.perf_counter() - t0, 1))
                except Exception as exc:
                    calls.append((time.perf_counter() - t0, 1))
                    self.gate.raised(1, exc)
                    raised[i] = True
                    p = self.spec.uniform(self.rng, 1)[0]
                    i += 1
                    continue
                values[i], grads[i] = r.values, r.gradient
                nxt = taylor_step(p[None], r.values[None], r.gradient[None], self.step)[0]
                nxt[3] += self.time_step
                p = self.spec.wrap(nxt)
                i += 1
        bad = self.gate.check(pts, values, grads, ~raised)
        idx = self.rng.choice(np.nonzero(~raised)[0],
                              min(self.size["checked"], int((~raised).sum())), replace=False)
        batch = interp.eval_batch(pts[idx])
        bad[idx] |= self.gate.bitwise((batch.values, values[idx]),
                                     (batch.gradients, grads[idx]))
        self.gate.tally(bad)
        self.resident_cells = max(self.resident_cells, interp.cache_size())
        return calls


class Query3dCsv(Workload):
    name = "query3d-csv"
    why = ("in-process CLI query from grid and point CSVs to a result CSV "
           "with high cell reuse, so CSV read, parse and write dominate")
    trace_ops = 2
    full = dict(count=40, periods=2, trajectories=15, steps=1000)
    tiny = dict(count=12, periods=1, trajectories=2, steps=20)
    step = 0.005  # about a twentieth of a cell between stored trajectory points

    def prepare(self):
        """Inputs, plus the grid and points CSVs unless an earlier process wrote them."""
        n = self.size["count"]
        self.spec = GridSpec((n,) * 3, (0.1,) * 3, (self.size["periods"],) * 3)
        self.field = make_field(self.spec, self.seed)
        self.values = vertex_values(self.field)
        self.points = trajectories(self.field, rng_for(self.seed, 1),
                                   self.size["trajectories"], self.size["steps"], self.step)
        self.grid_csv = os.path.join(self.work_dir, "grid.csv")
        self.points_csv = os.path.join(self.work_dir, "points.csv")
        self.result_csv = os.path.join(self.work_dir, "results.csv")
        if not os.path.exists(self.points_csv):
            write_grid_csv(self.grid_csv, self.spec, self.values)
            write_points_csv(self.points_csv, self.points)
        self.gate = Gate(self.field)
        self.checked = None  # (result bytes, failed mask) of the first query

    def setup(self):
        import hyperspline.cli  # noqa: F401  (the query's entry point)
        from hyperspline import Interpolator

        Interpolator(make_grid(self.spec, self.values))  # builds the dim-3 operators

    def op(self):
        from hyperspline import cli

        argv = ["query", self.grid_csv, "--points", self.points_csv,
                "--out", self.result_csv]
        n = len(self.points)
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with self.tracing, contextlib.redirect_stdout(sink):
                t0 = time.perf_counter()
                code = cli.main(argv)
                dt = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"query exited with code {code}")
            with open(self.result_csv, "rb") as fh:
                blob = fh.read()
        except Exception as exc:
            self.gate.tally(self.gate.raised(n, exc))
            return [(time.perf_counter() - t0, n)]
        if self.checked is None or self.checked[0] != blob:
            self.checked = (blob, self.check_result(blob))
        self.gate.tally(self.checked[1])
        return [(dt, n)]

    def check_result(self, blob: bytes) -> np.ndarray:
        """Re-read the result CSV and compare it bitwise with ``eval_batch``."""
        from hyperspline import Interpolator
        from hyperspline.io import load_grid_csv

        n = len(self.points)
        text = blob.decode("utf-8")
        rows = text.splitlines()[1:]
        try:
            table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1,
                               usecols=range(3 + 3 + 9), ndmin=2)
        except ValueError as exc:
            return self.gate.raised(n, exc)
        if len(rows) != n or table.shape[0] != n:
            return self.gate.raised(n, ValueError("result CSV has the wrong row count"))
        ok = np.array([r.endswith(",") for r in rows])  # empty error column
        coords, values = table[:, :3], table[:, 3:6]
        grads = table[:, 6:].reshape(n, 3, 3)
        interp = Interpolator(load_grid_csv(self.grid_csv))
        direct = interp.eval_batch(self.points)
        self.resident_cells = interp.cache_size()
        bad = self.gate.check(self.points, values, grads, ok)
        bad |= self.gate.bitwise((coords, self.points), (values, direct.values),
                                 (grads, direct.gradients))
        return bad


WORKLOADS = {w.name: w for w in (Sweep4dCold, Swarm3dWarm, Track4dScalar, Query3dCsv)}
