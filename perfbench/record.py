"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

For benchmark seeds 0..9 this writes ``perfbench/refs/<workload>.json``:

* sweeps: the exact count of every instance of a prefix of each grid point's
  seeds (``count_backtrack``); every sweep-n7 instance of seed 0 is
  cross-checked with ``count_brute``;
* count-k3: the count ``rbcount count FILE`` prints for each instance file,
  a sample of two files per point cross-checked with ``count_brute``;
* export-n15: SHA-256 of every instance file ``gen -o`` writes and every
  DIMACS file ``encode -o`` writes, and the text ``estimate`` prints.

Re-record only on a deliberate output change, and say so where the change
is described.  Runs two worker processes.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
import shutil
import sys

import common

SEEDS = range(10)
BRUTE_ALL_SEEDS = (0,)
SWEEP_PREFIX = {"sweep-n7": 100, "sweep-n10": 20}
COUNT_PER_POINT = 40
EXPORT_PER_POINT = 25


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record_seed(task):
    seed, brute_all = task
    common.use_checkout_sources()
    import workloads
    from rbcount.exact_count import count_backtrack, count_brute
    from rbcount.rb_model import RbParams, generate

    out = {}
    for name, prefix in SWEEP_PREFIX.items():
        w = workloads.WORKLOADS[name]
        runner = workloads.Runner(w, seed, prefix, common.WORK)
        counts = []
        for gi, point in enumerate(w.points):
            row = []
            for ii in range(prefix):
                inst = generate(RbParams(*point, seed=runner.instance_seed(gi, ii)))
                count = count_backtrack(inst).count
                if name == "sweep-n7" and brute_all and count_brute(inst).count != count:
                    raise SystemExit(f"{name} seed {seed} ({gi}, {ii}): "
                                     "count_brute disagrees")
                row.append(count)
            counts.append(row)
        out[name] = counts

    workdir = common.WORK / f"record-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    w = workloads.WORKLOADS["count-k3"]
    runner = workloads.Runner(w, seed, COUNT_PER_POINT, workdir)
    job = _checked_job(runner)
    out["count-k3"] = [[job.answers[pi, j] for j in range(COUNT_PER_POINT)]
                       for pi in range(len(w.points))]
    rng = random.Random(seed)
    sample = [(pi, j) for pi in range(len(w.points))
              for j in rng.sample(range(COUNT_PER_POINT), 2)]
    for pi, j in sample:
        inst = generate(RbParams(*w.points[pi], seed=runner.instance_seed(pi, j)))
        if count_brute(inst).count != job.answers[pi, j]:
            raise SystemExit(f"count-k3 seed {seed} ({pi}, {j}): count_brute disagrees")
    out["count-k3-brute"] = sample

    w = workloads.WORKLOADS["export-n15"]
    runner = workloads.Runner(w, seed, EXPORT_PER_POINT, workdir)
    job = _checked_job(runner)
    out["export-n15"] = [[[_sha256(runner.output(f"e{pi}-{j}.rbcsp")),
                           _sha256(runner.output(f"e{pi}-{j}.cnf"))]
                          for j in range(EXPORT_PER_POINT)]
                         for pi in range(len(w.points))]
    out["estimate"] = [job.answers["estimate", pi] for pi in range(len(w.points))]
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"seed {seed} recorded", file=sys.stderr)
    return seed, out


def _checked_job(runner):
    failures = runner.prepare()
    job = runner.job()
    failures += job.failures
    if failures:
        raise SystemExit(f"{runner.w.name} seed {runner.seed}: {failures[0]}")
    return job


def _dump(path, header: dict, seeds: dict) -> None:
    """One line per seed, so a re-record shows up seed by seed in a diff."""
    lines = ["{"]
    for key, value in header.items():
        lines.append(f"  {json.dumps(key)}: {json.dumps(value)},")
    lines.append('  "seeds": {')
    items = [f"    {json.dumps(str(s))}: {json.dumps(v, separators=(',', ':'))}"
             for s, v in sorted(seeds.items())]
    lines.append(",\n".join(items))
    lines.append("  }")
    lines.append("}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    tasks = [(s, s in BRUTE_ALL_SEEDS) for s in SEEDS]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        results = dict(pool.imap_unordered(record_seed, tasks))

    common.REFS.mkdir(exist_ok=True)
    for name, prefix in SWEEP_PREFIX.items():
        _dump(common.REFS / f"{name}.json",
              {"per_point": prefix, "brute_checked_all": list(BRUTE_ALL_SEEDS)},
              {s: r[name] for s, r in results.items()})
    _dump(common.REFS / "count-k3.json",
          {"per_point": COUNT_PER_POINT,
           "brute_checked": {str(s): r["count-k3-brute"]
                             for s, r in sorted(results.items())}},
          {s: r["count-k3"] for s, r in results.items()})
    _dump(common.REFS / "export-n15.json",
          {"per_point": EXPORT_PER_POINT, "estimate": results[0]["estimate"]},
          {s: r["export-n15"] for s, r in results.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
