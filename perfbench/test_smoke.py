"""Smoke tests of the benchmark itself at tiny sizes.

Run from the root of the repository: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import worker  # noqa: E402
from gate import Gate  # noqa: E402
from workloads import WORKLOADS, Query3dCsv, Sweep4dCold, _scalar_results  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(cls, tmp_path, seed=5):
    wl = cls(seed, str(tmp_path), tiny=True)
    wl.prepare()
    wl.setup()
    return wl


def test_benchmark_json_names_the_workloads_and_why():
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    wl = tiny(WORKLOADS[name], tmp_path)
    calls, ref_times = worker.measure(wl, 0.01)
    assert calls and ref_times
    e2e = worker.end_to_end(wl, calls, 1.0)
    e2e["setup_s"] = (worker.timed_setup(wl), "s")  # run.py takes the median of several
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == {
        k: u for k, (_, u) in e2e.items()}
    assert all(v > 0 for v, _ in e2e.values())

    rec = spans.Recorder("smoke")
    layers = worker.trace(wl, rec)
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        k: u for k, (_, u) in layers.items()}
    assert wl.gate.attempted > 0 and wl.gate.failed == 0


def test_timings_are_divided_by_the_reference_factor():
    wl = SimpleNamespace(tail_pct=99, gate=SimpleNamespace(value_err_max=0.0,
                                                           grad_err_max=0.0))
    calls = [(1e-3 * (1 + 0.01 * k), 2) for k in range(100)]
    fast = worker.end_to_end(wl, calls, 1.0)
    slow = worker.end_to_end(wl, [(1.8 * dt, n) for dt, n in calls], 1.8)
    for name in ("pts_per_s", "call_p90_ms", "call_tail_ms"):
        assert slow[name][0] == pytest.approx(fast[name][0])
    assert fast["pts_per_s"][0] == pytest.approx(2e3 / 1.495)
    assert fast["call_tail_ms"][0] == pytest.approx(np.percentile(
        [1 + 0.01 * k for k in range(100)], 99))


def test_gate_trips_on_corrupted_batch_result(tmp_path):
    wl = tiny(Sweep4dCold, tmp_path)
    from hyperspline import Interpolator

    interp = Interpolator(wl.grid)
    pts = wl.points
    res = interp.eval_batch(pts)
    gate = Gate(wl.field)
    assert not gate.check(pts, res.values, res.gradients, res.ok).any()

    values, grads, ok = res.values.copy(), res.gradients.copy(), res.ok.copy()
    values[3, 0] += 1.0                                   # plainly wrong
    values[5, 1] = np.nextafter(values[5, 1], np.inf)     # one ulp off
    grads[7, 2, 1] = np.nan
    ok[9] = False
    bad = gate.check(pts, values, grads, ok)
    assert set(np.nonzero(bad)[0]) == {3, 7, 9}

    idx = np.arange(12)
    s_values, s_grads, raised = _scalar_results(interp, pts[idx])
    assert not raised.any()
    differ = gate.bitwise((values[idx], s_values), (grads[idx], s_grads))
    assert set(np.nonzero(differ)[0]) == {3, 5, 7}


def test_gate_trips_on_corrupted_result_csv(tmp_path):
    wl = tiny(Query3dCsv, tmp_path)
    wl.op()
    blob = wl.checked[0]
    assert not wl.check_result(blob).any()
    header, first, rest = blob.split(b"\n", 2)
    cells = first.split(b",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-15)).encode()  # value of fy, row 0
    bad = wl.check_result(b"\n".join([header, b",".join(cells), rest]))
    assert np.nonzero(bad)[0].tolist() == [0]


@pytest.mark.parametrize("name", ["query3d-csv", "track4d-scalar"])
def test_span_self_times_are_nonnegative_and_sum_to_parent(name, tmp_path):
    wl = WORKLOADS[name](5, str(tmp_path), tiny=True)
    wl.prepare()
    rec = spans.Recorder("smoke")
    with rec:
        wl.setup()
    worker.trace(wl, rec)
    dur, self_t = spans.self_times(rec)
    parent = np.array(rec.parents)
    root = np.array(rec.roots)
    start, end = np.array(rec.starts), np.array(rec.ends)
    assert len(dur) > 0 and (self_t >= 0).all()
    child = parent >= 0
    assert (start[child] >= start[parent[child]]).all()
    assert (end[child] <= end[parent[child]]).all()
    subtree_self = np.zeros(len(dur))
    np.add.at(subtree_self, root, self_t)
    roots = ~child
    assert np.allclose(subtree_self[roots], dur[roots], rtol=1e-9, atol=1e-12)

    _, _, buckets, root_time = spans.layer_metrics(rec)
    assert sum(buckets.values()) == pytest.approx(root_time, rel=1e-9, abs=1e-12)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep4d-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
