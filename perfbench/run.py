"""The rbcount benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Each workload runs in its own fresh process (``worker.py``) through the
public ``rbcount`` command (``rbcount.cli.main`` with ``--jobs 1``), against
the sources in ``<checkout>/src``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the workload untraced and then traced, for half
of ``--seconds`` each, and reports the per-layer metrics.  ``--smoke`` runs every workload at reduced
size and reports both.  The human-readable report comes first; the last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import common

# name -> unit, in BENCHMARK.json's order.  The *_cal_* times are the
# measured times divided by the host's slowdown during each job (see
# common.HostSpeed), so that they compare across a shared host's busy and
# quiet stretches; the report prints the raw times beside them.
END_TO_END = {
    "setup_s": "s",
    "wall_cal_s": "s",
    "instances_per_cal_s": "1/s",
    "op_cal_ms_p50": "ms",
    "op_cal_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
_CB = "exact_count.count_backtrack"
PER_LAYER = {
    f"{_CB}.calls": "count",
    f"{_CB}.self_s": "s",
    f"{_CB}.nodes": "count",
    f"{_CB}.nodes_per_s": "1/s",
    f"{_CB}.ms_p50": "ms",
    f"{_CB}.ms_p90": "ms",
    "exact_count.decide_from_count.self_s": "s",
    "rb_model.generate.calls": "count",
    "rb_model.generate.self_s": "s",
    "rb_model.generate.us_per_call": "us",
    "rb_model.generate.nogoods_per_s": "1/s",
    "rb_model.read_instance.self_s": "s",
    "rb_model.read_instance.mb_per_s": "MB/s",
    "rb_model.write_instance.self_s": "s",
    "rb_model.write_instance.mb_per_s": "MB/s",
    "cnf_encode.encode_direct.self_s": "s",
    "cnf_encode.encode_direct.clauses_per_s": "1/s",
    "cnf_encode.write_dimacs.self_s": "s",
    "cnf_encode.write_dimacs.mb_per_s": "MB/s",
    "theory.ae_count.us_per_call": "us",
    "theory.self_s": "s",
    "experiments.sweep_tightness.self_s": "s",
    "experiments.emit.self_s": "s",
    "cli.main.self_s": "s",
    "rb_model.share": "fraction",
    "exact_count.share": "fraction",
    "cnf_encode.share": "fraction",
    "theory.share": "fraction",
    "experiments.share": "fraction",
    "cli.share": "fraction",
    "trace.overhead_s": "s",
}
SETUP_PROBES = 16  # half before the workload's run, half after
# A run must end within 180 s; workers get what is left of this.
RUN_BUDGET_S = 170.0

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
import rbcount.cli
rbcount.cli.build_parser()
print(repr(time.perf_counter() - started))
"""


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def environment() -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu": "unknown", "git_rev": "none (not a git checkout)", "dirty": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (common.ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(common.ROOT), *args],
                                  capture_output=True, text=True, timeout=30)
        try:
            rev = git("rev-parse", "HEAD")
            status = git("status", "--porcelain", "--untracked-files=no")
        except (OSError, subprocess.TimeoutExpired):
            return env
        if rev.returncode == 0:
            env["git_rev"] = rev.stdout.strip()
            env["dirty"] = bool(status.stdout.strip())
    return env


def sizes_text(workload, per_point: int) -> str:
    import workloads

    groups: dict[tuple, list[int]] = {}
    for point in workload.points:
        k, n = point[0], point[1]
        d, m, t = workloads.sizes(*point)
        groups.setdefault((k, n, d, m), []).append(t)
    parts = []
    for (k, n, d, m), ts in groups.items():
        t = (f"{min(ts)}..{max(ts)} over {len(ts)} points" if len(ts) > 4
             else ",".join(map(str, ts)))
        parts.append(f"k={k} n={n} d={d} m={m} t={t}")
    count = len(workload.points) * per_point
    return (f"{'; '.join(parts)}; {per_point} instances per point, "
            f"{count} instances per job")


def setup_seconds(probes: int, deadline: float) -> list[float]:
    """Import rbcount and build the parser in fresh processes; the first probe
    of each batch (which may compile bytecode) is not counted."""
    samples = []
    for i in range(probes + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(common.SRC)],
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        if i:
            samples.append(float(proc.stdout.strip()))
    return samples


def run_worker(name: str, seed: int, seconds: float, traced: bool, smoke: bool,
               deadline: float, min_ops: int | None = None) -> dict:
    cmd = [sys.executable, str(common.HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds)]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    if min_ops is not None:
        cmd += ["--min-ops", str(min_ops)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: worker ran past the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrated(worker: dict) -> tuple[list[float], list[float]]:
    """A worker's job times (s) and op times (ms), divided by the host's
    slowdown during each job."""
    factors = worker["slowdown"]
    walls = [wall / f for wall, f in zip(worker["wall_s"], factors)]
    ops = [ms / f for job, f in zip(worker["op_ms"], factors) for ms in job]
    return walls, ops


def end_to_end(plain: dict, setup: list[float]) -> dict[str, float]:
    walls, ops = calibrated(plain)
    wall = common.median(walls)
    return {
        "setup_s": common.median(setup),
        "wall_cal_s": wall,
        "instances_per_cal_s": plain["instances"] / wall,
        "op_cal_ms_p50": common.percentile(ops, 0.5),
        "op_cal_ms_p90": common.percentile(ops, 0.9),
        "peak_rss_mb": plain["peak_rss_mb"],
    }


def raw_lines(plain: dict) -> list[str]:
    """The measured times as they are, uncalibrated."""
    wall = common.median(plain["wall_s"])
    ops = [ms for job in plain["op_ms"] for ms in job]
    return [f"  raw wall_s {wall!r} s, instances_per_s {plain['instances'] / wall!r} 1/s, "
            f"op_ms_p50 {common.percentile(ops, 0.5)!r} ms, "
            f"op_ms_p90 {common.percentile(ops, 0.9)!r} ms",
            f"  host slowdown during the jobs: median {common.median(plain['slowdown']):.3f}, "
            f"range {min(plain['slowdown']):.3f}..{max(plain['slowdown']):.3f} "
            f"(reference loop time over {common.REFERENCE_S} s, sampled every "
            f"{common.HostSpeed.PERIOD_S} s)"]


def run_workload(name: str, args, deadline: float) -> tuple[dict, list[str]]:
    """Run one workload; returns its result object and its report lines."""
    import workloads

    w = workloads.WORKLOADS[name]
    per_point = w.smoke_per_point if args.smoke else w.per_point
    seconds = 0.0 if args.smoke else args.seconds
    lines = [f"workload {name} (seed {args.seed}): {w.why}",
             f"  sizes: {sizes_text(w, per_point)}"]
    metrics, units, samples = {}, {}, {}
    end_to_end_wanted = args.trace == 0 or args.smoke
    probes = 2 if args.smoke else SETUP_PROBES // 2
    if end_to_end_wanted:
        setup = setup_seconds(probes, deadline)
    # A traced run splits its time between the untraced and the traced worker;
    # its per-layer metrics need no minimum number of ops.
    worker_seconds = seconds if end_to_end_wanted else seconds / 2
    min_ops = 1 if args.smoke or not end_to_end_wanted else None
    plain = run_worker(name, args.seed, worker_seconds, False, args.smoke, deadline, min_ops)
    runs = [plain]
    if end_to_end_wanted:
        setup += setup_seconds(probes, deadline)
        metrics.update(end_to_end(plain, setup))
        units.update(END_TO_END)
        ops = sum(map(len, plain["op_ms"]))
        samples = {"setup_s": f"median of {len(setup)} fresh processes",
                   "wall_cal_s": f"median of {len(plain['wall_s'])} jobs",
                   "instances_per_cal_s": f"{plain['instances']} instances per job",
                   "op_cal_ms_p50": f"{ops} ops",
                   "op_cal_ms_p90": f"{ops} ops",
                   "peak_rss_mb": "workload process high-water RSS"}
        lines += raw_lines(plain)
    if args.trace == 1 or args.smoke:
        traced = run_worker(name, args.seed, worker_seconds, True, args.smoke, deadline,
                            min_ops)
        runs.append(traced)
        metrics.update(traced["per_layer"])
        metrics["trace.overhead_s"] = (common.median(traced["wall_s"])
                                       - common.median(plain["wall_s"]))
        units.update(PER_LAYER)
        holds = "holds" if traced["premise"]["holds"] else "DOES NOT HOLD"
        lines.append(f"  premise {holds}: {traced['premise']['text']}")
        lines.append(f"  trace: {traced['spans']} spans from {len(traced['wall_s'])} "
                     f"traced jobs in {traced['trace_file']}")

    attempted = sum(r["ops"] + r["checks_attempted"] for r in runs)
    failed = sum(r["ops_failed"] + r["checks_failed"] for r in runs)
    for r in runs:
        lines += [f"  FAILED: {msg}" for msg in r["failures"] + r["problems"]]
    lines.append(f"  checks: {'; '.join(plain['notes'])}")
    lines.append(f"  output digest: sha256:{plain['digest']}")
    if metrics.keys() != units.keys():
        raise BenchError(f"{name}: metrics {sorted(metrics.keys() ^ units.keys())} "
                         "are not both measured and declared")
    for key, unit in units.items():
        note = f" ({samples[key]})" if key in samples else ""
        lines.append(f"  {key} {metrics[key]!r} {unit}{note}")
    lines.append(f"  failed_fraction {failed / attempted!r} ({failed} of {attempted} "
                 "checked operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rbcount benchmark")
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at reduced size, both metric sets")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        common.use_checkout_sources()
    except (common.MissingSources, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    env = environment()
    print("rbcount benchmark: " + " ".join(f"{k}={v}" for k, v in env.items()))
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            result, lines = run_workload(name, args, deadline)
        except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": value for name, r in results.items()
                    for key, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
