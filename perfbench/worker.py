"""Run one workload in this (fresh) process and print its raw results as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--traced] [--smoke] [--min-ops N]

``run.py`` starts this once per untraced run and once per traced run.  The
job repeats until ``--seconds`` have passed and the workload's ``min_ops``
ops have run (100 where op_ms_p90 pools instance ops, so that it has ten
samples beyond it); then the outputs are checked.  With ``--traced`` every job runs under the tracer and
the spans are written to ``.bench_work/<workload>-traced/trace.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import time

import common

# Spans each kind of workload must record; zero calls fails the run, so a
# refactor that routes around a wrapper cannot report 0 s for a layer.
EXPECTED_SPANS = {
    "sweep": ("cli.main", "experiments.sweep_tightness", "rb_model.generate",
              "exact_count.count_backtrack", "exact_count.decide_from_count",
              "experiments.emit_csv", "experiments.emit_svg_plot",
              "experiments.write_manifest", "theory.critical_tightness"),
    "count": ("cli.main", "rb_model.read_instance", "exact_count.count_backtrack"),
    "export": ("cli.main", "theory.ae_count", "rb_model.generate",
               "rb_model.write_instance", "rb_model.read_instance",
               "cnf_encode.encode_direct", "cnf_encode.write_dimacs"),
}

# What each workload is meant to stress, checked from the trace, with the
# figure the project's ROADMAP baseline gives for it.
PREMISES = {
    "sweep-n7": ("rb_model.generate.self_s", "most", 0.5,
                 "ROADMAP baseline: generation 1.7 s vs counting 0.8 s (68%)"),
    "sweep-n10": ("exact_count.count_backtrack.self_s", "most", 0.5,
                  "ROADMAP baseline: counting 105.0 s vs generation 7.5 s (93%)"),
    "count-k3": ("rb_model.read_instance.self_s", "small", 0.05,
                 "expected 1-3% of each op"),
    "export-n15": ("exact_count.count_backtrack.calls", "zero", 0,
                   "expected no search spans at all"),
}


def premise(name: str, per_layer: dict, traced_wall: float) -> dict:
    metric, kind, limit, baseline = PREMISES[name]
    value = per_layer[metric]
    if kind == "zero":
        holds = value == 0
        text = f"{metric} = {value} (expect 0)"
    else:
        share = value / traced_wall if traced_wall > 0 else 0.0
        holds = share > limit if kind == "most" else share < limit
        sign = ">" if kind == "most" else "<"
        text = f"{metric} is {share:.1%} of traced wall time (expect {sign} {limit:.0%})"
    return {"holds": holds, "text": f"{text}; {baseline}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--min-ops", type=int, default=None,
                        help="ops to time at least (default: the workload's)")
    args = parser.parse_args(argv)

    common.use_checkout_sources()
    import checks
    import tracer
    import workloads

    w = workloads.WORKLOADS[args.workload]
    per_point = w.smoke_per_point if args.smoke else w.per_point
    workdir = common.WORK / f"{w.name}-{'traced' if args.traced else 'plain'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # The untraced run samples the host's speed; the traced run does not, so
    # that no sample lands inside a span.
    speed = None if args.traced else common.HostSpeed()
    runner = workloads.Runner(w, args.seed, per_point, workdir,
                              clock=speed.clock if speed else time.perf_counter)
    prepare_failures = runner.prepare()

    tr = tracer.Tracer() if args.traced else None
    if tr is not None:
        tr.install()
    jobs, ranges, digests, slowdown = [], [], [], []
    min_ops = w.min_ops if args.min_ops is None else args.min_ops
    with speed or contextlib.nullcontext():
        started = time.perf_counter()
        while True:
            first_span = tr.mark() if tr else 0
            first_sample = len(speed.samples) if speed else 0
            jobs.append(runner.job())
            ranges.append((first_span, tr.mark() if tr else 0))
            if speed is not None:
                slowdown.append(speed.slowdown_since(first_sample))
            if w.kind == "sweep":
                digests.append(checks.sweep_digest(runner))
            if (time.perf_counter() - started >= args.seconds
                    and sum(len(job.op_ms) for job in jobs) >= min_ops):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tr is not None:
        tr.uninstall()

    chk = checks.Checker()
    if w.kind == "sweep":
        answer = checks.check_sweep(chk, runner, digests)
    elif w.kind == "count":
        answer = checks.check_count(chk, runner, jobs)
    else:
        answer = checks.check_export(chk, runner, jobs)

    failures = prepare_failures + [f for job in jobs for f in job.failures]
    result = {
        "workload": w.name,
        "seed": args.seed,
        "per_point": per_point,
        "instances": runner.instance_count(),
        "wall_s": [job.wall_s for job in jobs],
        "op_ms": [job.op_ms for job in jobs],
        # The host's median slowdown during each job (untraced runs only).
        "slowdown": slowdown,
        "ops": len(prepare_failures) + sum(job.ops for job in jobs),
        "ops_failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": peak_rss_mb,
        "checks_attempted": chk.attempted,
        "checks_failed": chk.failed,
        "problems": chk.problems,
        "notes": chk.notes,
        "digest": checks.sha256_text(answer),
    }
    if tr is not None:
        stats = [tracer.SpanStats(tr.spans[a:b], job.wall_s)
                 for (a, b), job in zip(ranges, jobs)]
        missing = [name for name in EXPECTED_SPANS[w.kind] if stats[0].calls[name] == 0]
        if missing:
            print(f"perfbench: {w.name}: expected spans recorded zero calls: "
                  f"{', '.join(missing)} (names not found to wrap: "
                  f"{', '.join(tr.missing) or 'none'})", file=sys.stderr)
            return 3
        per_job = [tracer.job_metrics(s) for s in stats]
        chk.expect(tracer.counts_repeat(per_job),
                   "span counts (calls, nodes) differ between repeats of the job")
        result["checks_attempted"], result["checks_failed"] = chk.attempted, chk.failed
        per_layer = tracer.combine(per_job, stats)
        result["per_layer"] = per_layer
        result["premise"] = premise(w.name, per_layer, common.median(result["wall_s"]))
        trace_file = workdir / "trace.jsonl"
        tr.write(trace_file)
        result["trace_file"] = str(trace_file.relative_to(common.ROOT))
        result["spans"] = len(tr.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
