"""Span recorder for the traced run.

While installed, it wraps the public function of each layer of the
program, in this process only, and records one span per call: id, name,
start, end, parent span, root span (spans of one top-level call share
it) and phase. The program's source is not edited: the wrappers rebind
names in the modules that call them and are removed on uninstall.
Spans stay in memory until ``write`` puts them in a CSV file at the end
of the run.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

import numpy as np

# span name -> the layer bucket its self time is charged to
BUCKETS = {
    "operators.operator_set": "operators",
    "grid.locate": "grid.locate",
    "grid.neighborhood_block": "grid.gather",
    "interpolator.coefficients": "interpolator.coeff_build",
    "interpolator.eval_batch": "interpolator.batch_self",
    "interpolator.eval_with_gradient": "interpolator.scalar_self",
    "io.load_grid_csv": "io.grid_read",
    "io.write_results_csv": "io.result_write",
    "cli.main": "cli.query_self",
}
EVAL_SPANS = ("interpolator.eval_batch", "interpolator.eval_with_gradient")


def _count_batch(counts, args, out, exc):
    counts["interpolator.points"] += len(args[1])
    if out is not None:
        counts["interpolator.out_of_domain"] += int(np.count_nonzero(~out.ok))


def _count_scalar(counts, args, out, exc):
    from hyperspline.errors import OutOfDomainError

    counts["interpolator.points"] += 1
    if isinstance(exc, OutOfDomainError):
        counts["interpolator.out_of_domain"] += 1


def _count_grid_read(counts, args, out, exc):
    if out is not None:
        counts["io.grid_read_rows"] += int(np.prod(out.counts))


def _count_result_write(counts, args, out, exc):
    if exc is None:
        counts["io.result_write_rows"] += len(args[1])
        counts["io.result_write_bytes"] += os.path.getsize(args[0])


def _targets():
    """(owner, attribute, span name, counter) for each wrapped call site."""
    from hyperspline import cli, interpolator

    cls = interpolator.Interpolator
    return [
        (interpolator, "operator_set", "operators.operator_set", None),
        (interpolator, "locate", "grid.locate", None),
        (interpolator, "neighborhood_block", "grid.neighborhood_block", None),
        (cls, "coefficients", "interpolator.coefficients", None),
        (cls, "eval_batch", "interpolator.eval_batch", _count_batch),
        (cls, "eval_with_gradient", "interpolator.eval_with_gradient", _count_scalar),
        (cli, "load_grid_csv", "io.load_grid_csv", _count_grid_read),
        (cli, "write_results_csv", "io.write_results_csv", _count_result_write),
        (cli, "main", "cli.main", None),
    ]


class Recorder:
    """In-memory spans plus counters, recorded at the layer boundaries.

    Spans are kept as parallel columns of numbers and interned strings,
    which the garbage collector never scans, so a long traced run does
    not slow down as spans pile up.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.roots, self.phases = [], [], []
        self.counts = {}  # phase -> Counter
        self.phase = "setup"
        self._stack = []
        self._saved = []
        self._targets = None

    @property
    def spans(self):
        """``(id, name, start, end, parent, root, phase)`` per span."""
        return list(zip(range(len(self.names)), self.names, self.starts, self.ends,
                        self.parents, self.roots, self.phases))

    def _wrap(self, fn, name, count):
        names, starts, ends = self.names, self.starts, self.ends
        parents, roots, phases = self.parents, self.roots, self.phases
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(names)
            parent = stack[-1] if stack else -1
            names.append(name)
            parents.append(parent)
            roots.append(roots[parent] if parent >= 0 else sid)
            phases.append(self.phase)
            ends.append(0.0)
            stack.append(sid)
            out = exc = None
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
                if count is not None:
                    count(self.counts.setdefault(self.phase, Counter()), args, out, exc)

        return wrapper

    def install(self):
        if self._saved:
            return
        if self._targets is None:
            self._targets = _targets()
        for owner, attr, name, count in self._targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    def write(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# " + json.dumps(dict(header, run=self.run_id)) + "\n")
            fh.write("id,name,start,end,parent,root,phase\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]!r},{s[3]!r},{s[4]},{s[5]},{s[6]}\n")


def self_times(rec: Recorder):
    """Per span: duration, and duration minus the durations of its children."""
    dur = np.array(rec.ends) - np.array(rec.starts, dtype=float)
    parent = np.array(rec.parents, dtype=np.int64)
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur, dur - child


def layer_metrics(rec: Recorder, phase: str = "measure"):
    """Per-layer metrics of one phase as name -> (value, unit), the dominant
    layer, self time per layer bucket and the time in top-level calls."""
    dur, self_t = self_times(rec)
    names = np.array(rec.names, dtype=object)
    in_phase = np.array(rec.phases, dtype=object) == phase
    parent = np.array(rec.parents, dtype=np.int64)

    def pick(name):
        return in_phase & (names == name)

    def total(name, times=dur):
        return float(times[pick(name)].sum())

    coeff = pick("interpolator.coefficients")
    gather = pick("grid.neighborhood_block")
    built = np.zeros(len(dur), dtype=bool)
    built[parent[gather]] = True
    lookups = int(coeff.sum())
    cells_built = int((built & coeff).sum())
    counts = rec.counts.get(phase, Counter())

    buckets = Counter()
    for name, bucket in BUCKETS.items():
        buckets[bucket] += total(name, self_t)
    root_time = float(dur[in_phase & (parent < 0)].sum())
    eval_time = sum(total(n) for n in EVAL_SPANS)
    dominant, dominant_s = max(buckets.items(), key=lambda kv: kv[1])
    io_cli = buckets["io.grid_read"] + buckets["io.result_write"] + buckets["cli.query_self"]

    metrics = {
        "operators.build_s": (float(dur[names == "operators.operator_set"].sum()), "s"),
        "grid.locate_calls": (int(pick("grid.locate").sum()), "count"),
        "grid.locate_s": (total("grid.locate"), "s"),
        "grid.gather_calls": (int(gather.sum()), "count"),
        "grid.gather_s": (total("grid.neighborhood_block"), "s"),
        "interpolator.coeff_lookups": (lookups, "count"),
        "interpolator.cells_built": (cells_built, "count"),
        "interpolator.cache_hit_ratio": (1.0 - cells_built / lookups if lookups else 0.0,
                                         "ratio"),
        "interpolator.coeff_build_s": (buckets["interpolator.coeff_build"], "s"),
        "interpolator.batch_self_s": (buckets["interpolator.batch_self"], "s"),
        "interpolator.scalar_self_s": (buckets["interpolator.scalar_self"], "s"),
        "interpolator.points": (counts["interpolator.points"], "count"),
        "interpolator.out_of_domain": (counts["interpolator.out_of_domain"], "count"),
        "io.grid_read_s": (total("io.load_grid_csv"), "s"),
        "io.grid_read_rows": (counts["io.grid_read_rows"], "count"),
        "io.result_write_s": (total("io.write_results_csv"), "s"),
        "io.result_write_rows": (counts["io.result_write_rows"], "count"),
        "io.result_write_bytes": (counts["io.result_write_bytes"], "bytes"),
        "cli.query_self_s": (buckets["cli.query_self"], "s"),
        "trace.dominant_share": (dominant_s / root_time if root_time else 0.0, "ratio"),
        "trace.gather_build_share": (
            (buckets["grid.gather"] + buckets["interpolator.coeff_build"]) / eval_time
            if eval_time else 0.0, "ratio"),
        "trace.io_cli_over_eval": (io_cli / eval_time if eval_time else 0.0, "ratio"),
    }
    return metrics, dominant, dict(buckets), root_time
