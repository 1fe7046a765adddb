"""Spans around rbcount's layer boundaries, recorded from outside ``src/``.

``Tracer.install`` replaces each layer's public functions at the names its
callers use (``rbcount.cli.read_instance``, ``rbcount.experiments.generate``,
...) with a wrapper that records a span: name, start, end, parent span, the
operation it belongs to (one top-level ``cli.main`` call), and a work count
taken at the same boundary (search nodes, nogoods drawn, bytes, clauses).
Spans stay in memory until ``write``.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

from common import median, percentile

# Module -> the names it calls across a layer boundary.  Names a module does
# not have are skipped; a workload that expects their spans then fails loudly.
CALL_SITES = {
    "rbcount.cli": (
        "main", "generate", "read_instance", "write_instance", "derive_sizes",
        "theorem_applicability", "count_backtrack", "decide_from_count",
        "encode_direct", "write_dimacs", "ae_count", "critical_tightness",
        "critical_density", "sweep_tightness", "crossing_point", "emit_csv",
        "emit_svg_plot", "sweep_manifest", "write_manifest"),
    "rbcount.experiments": (
        "generate", "derive_sizes", "count_backtrack", "decide_from_count",
        "critical_tightness"),
}

LAYERS = ("rb_model", "exact_count", "cnf_encode", "theory", "experiments", "cli")
EMIT = ("experiments.emit_csv", "experiments.emit_svg_plot",
        "experiments.sweep_manifest", "experiments.write_manifest")


def _file_bytes(fp) -> int:
    try:
        return os.fstat(fp.fileno()).st_size
    except (AttributeError, OSError, ValueError):
        return 0


def _written_bytes(fp) -> int:
    try:
        return fp.tell()
    except (AttributeError, OSError, ValueError):
        return 0


class Tracer:
    def __init__(self):
        # (span id, parent id, op id, name, start, end, work)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple] = []
        self.missing: list[str] = []

    # -- wrappers -----------------------------------------------------------

    def _work_counter(self, name: str):
        from rbcount.rb_model import derive_sizes

        def nogoods(args, result):
            sizes = derive_sizes(args[0])
            return sizes.m * sizes.t_nogoods

        return {
            "exact_count.count_backtrack": lambda a, res: res.nodes_visited,
            "rb_model.generate": nogoods,
            "rb_model.read_instance": lambda a, res: _file_bytes(a[0]),
            "rb_model.write_instance": lambda a, res: _written_bytes(a[1]),
            "cnf_encode.encode_direct": lambda a, res: len(res.clauses),
            "cnf_encode.write_dimacs": lambda a, res: _written_bytes(a[1]),
        }.get(name)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        work_of = self._work_counter(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                self._op += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self._op, name, start, end, 0)
            if work_of is not None:
                spans[sid] = (sid, parent, self._op, name, start, end,
                              work_of(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrapped = {}
        for module_name, names in CALL_SITES.items():
            module = sys.modules[module_name]
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn)
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end", "work")
        with open(path, "w", encoding="utf-8") as fp:
            for span in self.spans:
                fp.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- per-layer metrics ------------------------------------------------------


class SpanStats:
    """Calls, self time, work and durations per span name over a range of spans."""

    def __init__(self, spans, wall_s: float):
        self.wall_s = wall_s
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)
        self.durations = defaultdict(list)
        child = defaultdict(float)
        for sid, parent, _, name, start, end, work in spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, parent, _, name, start, end, work in spans:
            self.calls[name] += 1
            self.self_s[name] += (end - start) - child[sid]
            self.work[name] += work
            self.durations[name].append(end - start)

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_s.items()
                   if name.split(".", 1)[0] == layer)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def job_metrics(stats: SpanStats) -> dict[str, float]:
    """Per-layer metrics of one traced job (the names BENCHMARK.json lists)."""
    cb = "exact_count.count_backtrack"
    gen = "rb_model.generate"
    out = {
        f"{cb}.calls": stats.calls[cb],
        f"{cb}.self_s": stats.self_s[cb],
        f"{cb}.nodes": stats.work[cb],
        f"{cb}.nodes_per_s": _rate(stats.work[cb], stats.self_s[cb]),
        "exact_count.decide_from_count.self_s":
            stats.self_s["exact_count.decide_from_count"],
        f"{gen}.calls": stats.calls[gen],
        f"{gen}.self_s": stats.self_s[gen],
        f"{gen}.us_per_call": _rate(stats.self_s[gen] * 1e6, stats.calls[gen]),
        f"{gen}.nogoods_per_s": _rate(stats.work[gen], stats.self_s[gen]),
    }
    for name in ("rb_model.read_instance", "rb_model.write_instance",
                 "cnf_encode.write_dimacs"):
        out[f"{name}.self_s"] = stats.self_s[name]
        out[f"{name}.mb_per_s"] = _rate(stats.work[name] / 1e6, stats.self_s[name])
    enc = "cnf_encode.encode_direct"
    out[f"{enc}.self_s"] = stats.self_s[enc]
    out[f"{enc}.clauses_per_s"] = _rate(stats.work[enc], stats.self_s[enc])
    ae = "theory.ae_count"
    out[f"{ae}.us_per_call"] = _rate(stats.self_s[ae] * 1e6, stats.calls[ae])
    out["theory.self_s"] = stats.layer_self("theory")
    out["experiments.sweep_tightness.self_s"] = \
        stats.self_s["experiments.sweep_tightness"]
    out["experiments.emit.self_s"] = sum(stats.self_s[name] for name in EMIT)
    out["cli.main.self_s"] = stats.self_s["cli.main"]
    for layer in LAYERS:
        out[f"{layer}.share"] = _rate(stats.layer_self(layer), stats.wall_s)
    return out


COUNTS = ("exact_count.count_backtrack.calls", "exact_count.count_backtrack.nodes",
          "rb_model.generate.calls")


def combine(per_job: list[dict], stats: list[SpanStats]) -> dict[str, float]:
    """Median over traced jobs, with count_backtrack call percentiles pooled.
    Counts repeat exactly from job to job (see counts_repeat) and are the
    first job's."""
    out = {key: per_job[0][key] if key in COUNTS else median([m[key] for m in per_job])
           for key in per_job[0]}
    durations = [d for s in stats for d in s.durations["exact_count.count_backtrack"]]
    cb = "exact_count.count_backtrack"
    out[f"{cb}.ms_p50"] = percentile(durations, 0.5) * 1000.0 if durations else 0.0
    out[f"{cb}.ms_p90"] = percentile(durations, 0.9) * 1000.0 if durations else 0.0
    return out


def counts_repeat(per_job: list[dict]) -> bool:
    return all(m[key] == per_job[0][key] for m in per_job for key in COUNTS)
