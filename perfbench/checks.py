"""Output checks for each workload.

A check compares what the ``rbcount`` commands wrote or printed against the
references recorded by ``record.py`` for the benchmark seed.  On a seed with
no recorded references it falls back to independent checks: a ``count_brute``
sample where the assignment space is small enough, read/write round trips,
and decision consistency (count**2 >= d**n against the printed YES/NO).
Sweep CSVs are read by header name and only the columns a correct change
cannot alter are compared (``mean_nodes`` and ``wall_ms`` are not).
Every mismatch counts as a failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random

import common
from workloads import Runner, param_args, run_cli, sizes

from rbcount.cnf_encode import encode_direct, read_dimacs
from rbcount.exact_count import count_backtrack, count_brute
from rbcount.rb_model import RbParams, generate, read_instance, write_instance

SWEEP_COLUMNS = ("p", "p_eff", "yes_fraction", "mean_count_log", "median_count_log")
# Largest d**n the count_brute sample takes on (under 3 s per instance).
BRUTE_SPACE = 400_000
REL_TOL = 1e-9


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


def load_refs(runner: Runner):
    """The recorded entry for this seed, or None if there is none that covers
    the run's instances."""
    path = common.REFS / f"{runner.w.name}.json"
    if not path.is_file():
        return None, None
    refs = json.loads(path.read_text(encoding="utf-8"))
    entry = refs["seeds"].get(str(runner.seed))
    if entry is None or refs["per_point"] < runner.per_point:
        return refs, None
    return refs, entry


def _close(got: float, want: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def _log_mean(counts) -> float:
    total = sum(counts)
    return math.log(total) - math.log(len(counts)) if total else -math.inf


def _log_median(counts) -> float:
    ordered = sorted(counts)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return math.log(ordered[mid]) if ordered[mid] else -math.inf
    twice = ordered[mid - 1] + ordered[mid]
    return math.log(twice) - math.log(2.0) if twice else -math.inf


def _instance(runner: Runner, pi: int, j: int):
    return generate(RbParams(*runner.w.points[pi], seed=runner.instance_seed(pi, j)))


def _same_instance(a, b) -> bool:
    return a.n == b.n and a.d == b.d and a.constraints == b.constraints


def _body(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("#"))


def _round_trip(chk: Checker, runner: Runner, path, pi: int, j: int):
    """read_instance gives the generated instance back, and writing it again
    gives the file's bytes (comment lines aside)."""
    text = path.read_text(encoding="utf-8")
    read = read_instance(io.StringIO(text))
    generated = _instance(runner, pi, j)
    chk.expect(_same_instance(read, generated),
               f"{path.name}: read_instance differs from the generated instance")
    sink = io.StringIO()
    write_instance(read, sink)
    chk.expect(sink.getvalue() == _body(text),
               f"{path.name}: write_instance(read_instance(file)) changes the text")
    return generated


def _brute_sample(chk: Checker, runner: Runner, counts, per_point: int, size: int):
    d, _, _ = sizes(*runner.w.points[0])
    n = runner.w.points[0][1]
    if d ** n > BRUTE_SPACE:
        chk.notes.append(f"count_brute sample skipped: {d}^{n} assignments")
        return
    pairs = [(pi, j) for pi in range(len(runner.w.points)) for j in range(per_point)]
    picks = random.Random(runner.seed).sample(pairs, min(size, len(pairs)))
    agree = 0
    for pi, j in picks:
        brute = count_brute(_instance(runner, pi, j)).count
        agree += chk.expect(brute == counts[pi][j],
                            f"instance ({pi}, {j}): count_brute {brute} != {counts[pi][j]}")
    chk.notes.append(f"count_brute agrees on {agree} of {len(picks)} sampled instances")


# -- sweeps -------------------------------------------------------------------


def check_sweep(chk: Checker, runner: Runner, repeat_digests: list[str]) -> str:
    _, entry = load_refs(runner)
    pp = runner.per_point
    if entry is not None:
        counts = [row[:pp] for row in entry]
        chk.notes.append(f"checked against recorded counts for seed {runner.seed}")
    else:
        counts = [[count_backtrack(_instance(runner, gi, ii)).count for ii in range(pp)]
                  for gi in range(len(runner.w.points))]
        chk.notes.append(f"no recorded counts for seed {runner.seed}: recounted "
                         "every instance with count_backtrack")
        _brute_sample(chk, runner, counts, pp, 3)

    with open(runner.output("sweep.csv"), newline="", encoding="utf-8") as fp:
        rows = list(csv.DictReader(fp))
    chk.expect(len(rows) == len(runner.w.points),
               f"sweep CSV has {len(rows)} rows, want {len(runner.w.points)}")
    for gi, (row, point) in enumerate(zip(rows, runner.w.points)):
        k, n = point[0], point[1]
        d, _, t = sizes(*point)
        c = counts[gi]
        want = {
            "p": point[4],
            "p_eff": t / d ** k,
            "yes_fraction": sum(1 for x in c if x * x >= d ** n) / len(c),
            "mean_count_log": _log_mean(c),
            "median_count_log": _log_median(c),
        }
        for col, value in want.items():
            try:
                got = float(row[col])
            except (KeyError, TypeError, ValueError):
                chk.expect(False, f"sweep CSV row {gi}: no {col} value")
                continue
            chk.expect(_close(got, value),
                       f"sweep CSV row {gi} {col}: {got!r}, want {value!r}")
    svg = runner.output("sweep.svg").read_text(encoding="utf-8")
    chk.expect(svg.startswith("<svg") and svg.rstrip().endswith("</svg>"),
               "sweep SVG is not a complete <svg> document")
    manifest = runner.output("sweep.txt").read_text(encoding="utf-8")
    chk.expect("experiment = sweep" in manifest and f"base_seed = {runner.seed}" in manifest,
               "sweep manifest lacks the experiment or its seed")
    answer = _sweep_answer(rows)
    chk.expect(all(d == sha256_text(answer) for d in repeat_digests),
               "repeats of the sweep wrote different CSV answers")
    return answer


def _sweep_answer(rows) -> str:
    return "\n".join(",".join(row.get(c) or "" for c in SWEEP_COLUMNS) for row in rows)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_digest(runner: Runner) -> str:
    """Digest of the checked CSV columns of the sweep the runner last wrote."""
    with open(runner.output("sweep.csv"), newline="", encoding="utf-8") as fp:
        return sha256_text(_sweep_answer(csv.DictReader(fp)))


# -- count-k3 -----------------------------------------------------------------


def check_count(chk: Checker, runner: Runner, jobs) -> str:
    _, entry = load_refs(runner)
    pp, npts = runner.per_point, len(runner.w.points)
    last = jobs[-1].answers
    if entry is not None:
        counts = [row[:pp] for row in entry]
        chk.notes.append(f"checked against recorded counts for seed {runner.seed}")
    else:
        counts = [[last.get((pi, j)) for j in range(pp)] for pi in range(npts)]
        chk.notes.append(f"no recorded counts for seed {runner.seed}")
        _brute_sample(chk, runner, counts, pp, 2)
    for job in jobs:
        for (pi, j), count in job.answers.items():
            chk.expect(count == counts[pi][j],
                       f"count k3-{pi}-{j}: printed {count}, want {counts[pi][j]}")
    for pi in range(npts):
        for j in range(pp):
            _round_trip(chk, runner, runner.files[pi, j], pi, j)

    rng = random.Random(runner.seed)
    for pi in range(npts):
        j = rng.randrange(pp)
        code, out, err = run_cli(["decide", str(runner.files[pi, j])])
        lines = out.split("\n")
        if not chk.expect(code == 0 and len(lines) > 1 and lines[1].startswith("count "),
                          f"decide k3-{pi}-{j}: exit {code}: {err.strip()}"):
            continue
        count = int(lines[1].split()[1])
        d, _, _ = sizes(*runner.w.points[pi])
        n = runner.w.points[pi][1]
        chk.expect(count == counts[pi][j], f"decide k3-{pi}-{j}: count {count}")
        chk.expect(lines[0] == ("YES" if count * count >= d ** n else "NO"),
                   f"decide k3-{pi}-{j}: printed {lines[0]} for count {count}")
    return ",".join(str(last.get((pi, j))) for j in range(pp) for pi in range(npts))


# -- export-n15 ---------------------------------------------------------------


def _estimate_values(text: str) -> dict[str, str]:
    return dict(line.split(" ", 1) for line in text.splitlines() if " " in line)


def _same_value(got: str, want: str) -> bool:
    try:
        return _close(float(got), float(want))
    except ValueError:
        return got == want


def check_export(chk: Checker, runner: Runner, jobs) -> str:
    refs, entry = load_refs(runner)
    pp = runner.per_point
    if entry is not None:
        chk.notes.append(f"checked against recorded SHA-256s for seed {runner.seed}")
    else:
        chk.notes.append(f"no recorded SHA-256s for seed {runner.seed}: checked "
                         "DIMACS files against encode_direct")
    answer = []
    for pi, point in enumerate(runner.w.points):
        for job in jobs:
            got = _estimate_values(job.answers["estimate", pi])
            want = _estimate_values(refs["estimate"][pi]) if refs else got
            chk.expect(got.keys() == want.keys()
                       and all(_same_value(got[key], want[key]) for key in want),
                       f"estimate {' '.join(param_args(point))}: output differs")
        answer.append(jobs[-1].answers["estimate", pi])
        for j in range(pp):
            rb = runner.output(f"e{pi}-{j}.rbcsp")
            cnf = runner.output(f"e{pi}-{j}.cnf")
            hashes = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (rb, cnf)]
            answer.extend(hashes)
            generated = _round_trip(chk, runner, rb, pi, j)
            if entry is not None:
                chk.expect(hashes[0] == entry[pi][j][0], f"{rb.name}: SHA-256 differs")
                chk.expect(hashes[1] == entry[pi][j][1], f"{cnf.name}: SHA-256 differs")
            else:
                with open(cnf, encoding="utf-8") as fp:
                    read = read_dimacs(fp)
                chk.expect(read == encode_direct(generated),
                           f"{cnf.name}: differs from encode_direct of the instance")
    return "\n".join(answer)
