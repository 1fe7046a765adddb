"""The benchmark's workloads.

Each workload runs ``rbcount`` commands through ``rbcount.cli.main`` with an
argv list, in this process, with ``--jobs 1``.  Every instance a workload
touches is derived from the benchmark seed with ``instance_seed(seed, point,
index)``, so the same seed always gives the same inputs, and seed 0 gives the
acceptance tests' sweep instances.

Import this module only after ``common.use_checkout_sources()``.
"""

from __future__ import annotations

import io
import math
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from rbcount import cli
from rbcount.experiments import instance_seed

# The criterion-3 tightness grid: p = 0.05, 0.07, ..., 0.45.
GRID_START, GRID_STOP, GRID_STEP = 0.05, 0.45, 0.02
GRID = tuple(round(GRID_START + i * GRID_STEP, 12) for i in range(21))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "sweep" | "count" | "export"
    points: tuple              # (k, n, alpha, r, p) per point
    per_point: int             # instances per point in a full run
    smoke_per_point: int       # instances per point in --smoke
    min_ops: int               # ops a full run times at least, whatever --seconds
    why: str


def _sweep_points(n: int) -> tuple:
    return tuple((2, n, 0.8, 1.7, p) for p in GRID)


WORKLOADS = {w.name: w for w in (
    Workload("sweep-n7", "sweep", _sweep_points(7), 100, 3, 1,
             "the paper's criterion-3 sweep at n=7 with CSV, SVG and manifest; "
             "seeded generation does most of the work"),
    Workload("sweep-n10", "sweep", _sweep_points(10), 8, 1, 3,
             "the criterion-3 grid at n=10 on a prefix of each point's seeds; "
             "exact counting (count_backtrack) does most of the work"),
    Workload("count-k3", "count",
             tuple((3, 8, 0.8, 1.0, p) for p in (0.05, 0.10, 0.15, 0.20)), 25, 2, 100,
             "rbcount count on arity-3 instance files: the counter's tuple-check "
             "path, which no binary workload runs"),
    Workload("export-n15", "export",
             ((2, 13, 0.8, 1.7, 0.21), (2, 15, 0.85, 1.4, 0.26),
              (3, 15, 0.85, 1.4, 0.26)), 10, 1, 100,
             "estimate, gen -o and encode -o on the paper's larger grid: text and "
             "DIMACS I/O with no search, so counter changes should not move it"),
)}


def sizes(k: int, n: int, alpha: float, r: float, p: float) -> tuple[int, int, int]:
    """(d, m, t) by the documented rounding rules, computed independently of
    the package: d = round(n^alpha), m = round(r n ln n), t = round(p d^k),
    half-up, clamped to d >= 2, m >= 1 and 1 <= t <= d^k - 1."""
    d = max(2, math.floor(n ** alpha + 0.5))
    m = max(1, math.floor(r * n * math.log(n) + 0.5))
    dk = d ** k
    t = min(max(1, math.floor(p * dk + 0.5)), dk - 1)
    return d, m, t


def param_args(point) -> list[str]:
    k, n, alpha, r, p = point
    return ["-k", str(k), "-n", str(n), "-a", repr(alpha), "-r", repr(r),
            "-p", repr(p)]


def run_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """Run one rbcount command in this process: (exit code, stdout, stderr).

    The code is None when the command raised; the traceback is in stderr.
    ``cli.main`` is looked up on each call so a tracing wrapper sees it.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


@dataclass
class Job:
    """One execution of a workload's whole job."""

    wall_s: float
    op_ms: list[float] = field(default_factory=list)
    ops: int = 0
    failures: list[str] = field(default_factory=list)
    answers: dict = field(default_factory=dict)


class Runner:
    """Prepares a workload's inputs and runs its job, writing under workdir."""

    def __init__(self, workload: Workload, seed: int, per_point: int, workdir: Path,
                 clock=time.perf_counter):
        self.w = workload
        self.seed = seed
        self.per_point = per_point
        self.workdir = workdir
        self.clock = clock
        self.files: dict[tuple[int, int], Path] = {}

    def instance_count(self) -> int:
        return len(self.w.points) * self.per_point

    def instance_seed(self, point_index: int, index: int) -> int:
        return instance_seed(self.seed, point_index, index)

    def prepare(self) -> list[str]:
        """Write the instance files count-k3 reads; returns failure messages."""
        failures = []
        if self.w.kind != "count":
            return failures
        for pi, point in enumerate(self.w.points):
            for j in range(self.per_point):
                path = self.workdir / f"k3-{pi}-{j}.rbcsp"
                argv = ["gen", *param_args(point), "--seed",
                        str(self.instance_seed(pi, j)), "-o", str(path)]
                code, _, err = run_cli(argv)
                if code != 0:
                    failures.append(f"gen {path.name}: exit {code}: {err.strip()}")
                self.files[pi, j] = path
        return failures

    def job(self) -> Job:
        return {"sweep": self._sweep_job, "count": self._count_job,
                "export": self._export_job}[self.w.kind]()

    def output(self, name: str) -> Path:
        return self.workdir / name

    def _sweep_job(self) -> Job:
        k, n, alpha, r, _ = self.w.points[0]
        argv = ["sweep", "-k", str(k), "-n", str(n), "-a", repr(alpha), "-r", repr(r),
                "--start", repr(GRID_START), "--stop", repr(GRID_STOP),
                "--step", repr(GRID_STEP), "--instances", str(self.per_point),
                "--seed", str(self.seed), "--jobs", "1",
                "-o", str(self.output("sweep.csv")),
                "--svg", str(self.output("sweep.svg")),
                "--manifest", str(self.output("sweep.txt"))]
        started = self.clock()
        code, _, err = run_cli(argv)
        wall = self.clock() - started
        job = Job(wall_s=wall, op_ms=[wall * 1000.0], ops=1)
        if code != 0:
            job.failures.append(f"sweep: exit {code}: {err.strip()[-500:]}")
        return job

    def _count_job(self) -> Job:
        job = Job(wall_s=0.0)
        started = self.clock()
        for j in range(self.per_point):
            for pi in range(len(self.w.points)):
                path = self.files[pi, j]
                t0 = self.clock()
                code, out, err = run_cli(["count", str(path)])
                job.op_ms.append((self.clock() - t0) * 1000.0)
                job.ops += 1
                if code != 0:
                    job.failures.append(f"count {path.name}: exit {code}: {err.strip()}")
                    continue
                try:
                    job.answers[pi, j] = int(out.split("\n", 1)[0])
                except ValueError:
                    job.failures.append(f"count {path.name}: no count in {out[:80]!r}")
        job.wall_s = self.clock() - started
        return job

    def _export_job(self) -> Job:
        job = Job(wall_s=0.0)
        started = self.clock()
        for pi, point in enumerate(self.w.points):
            code, out, err = run_cli(["estimate", *param_args(point)])
            job.ops += 1
            if code != 0:
                job.failures.append(f"estimate {pi}: exit {code}: {err.strip()}")
            job.answers["estimate", pi] = out
            for j in range(self.per_point):
                rb = self.output(f"e{pi}-{j}.rbcsp")
                cnf = self.output(f"e{pi}-{j}.cnf")
                t0 = self.clock()
                gen = run_cli(["gen", *param_args(point), "--seed",
                               str(self.instance_seed(pi, j)), "-o", str(rb)])
                enc = run_cli(["encode", str(rb), "-o", str(cnf)])
                job.op_ms.append((self.clock() - t0) * 1000.0)
                job.ops += 2
                for what, (code, _, err) in (("gen", gen), ("encode", enc)):
                    if code != 0:
                        job.failures.append(f"{what} e{pi}-{j}: exit {code}: {err.strip()}")
        job.wall_s = self.clock() - started
        return job
