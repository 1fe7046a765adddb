"""Grid experiments over the random instance family.

Sweeps over p or r, and tables of exact counts against the closed-form mean,
start from one ``RbParams`` point and share one loop: ``_count_points`` checks
the run's instances and jobs once, opens one process pool for the run when
more than one worker can be used, and yields each point's ``count_backtrack``
results in order; ``emit_csv`` writes the rows, typed tuples whose cells it
flattens in order.  Instance seeds mix the point's seed with the (point, index) pair as
the generator mixes its draws, so results are reproducible and independent
of worker count.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import time
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from .exact_count import CountResult, check_decision_divisor, count_backtrack, decide_from_count
from .rb_model import DerivedSizes, RbParams, derive_sizes, generate, mix64, with_seed
from .theory import ae_count, critical_density, critical_tightness, expected_count

# A grid builds every point's RbParams up front, so its size is bounded.
MAX_GRID_POINTS = 10 ** 5

_CHUNK = 4  # instances a pool worker counts per task

CSV_HEADER = "p,p_eff,yes_fraction,mean_count_log,median_count_log,mean_nodes,wall_ms"


class _SweepFields(NamedTuple):
    base: RbParams
    grid_stop: float
    grid_step: float
    vary: str = "p"
    divisor: int = 2
    instances_per_point: int = 100
    jobs: int = 1


class SweepConfig(_SweepFields):
    """A one-dimensional grid over tightness p (vary="p") or density r
    (vary="r") from the base point, everything else held fixed.

    The base point's varied field is the grid start, and its seed seeds the
    instances of every grid point.  Construction checks every field and grid
    point; _replace and _make take the fields as they are.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.vary not in ("p", "r"):
            raise ValueError(f"vary must be 'p' or 'r', got {self.vary!r}")
        _check_batch(self.instances_per_point, self.jobs)
        check_decision_divisor(self.divisor)
        self.points  # each grid point's RbParams checks its own values
        return self

    @property
    def points(self) -> list[RbParams]:
        """The grid points in order: the base point with the varied field set,
        each built, and so checked, by RbParams."""
        fields = self.base._asdict()
        start = fields[self.vary]
        return [RbParams(**{**fields, self.vary: value})
                for value in grid_values(start, self.grid_stop, self.grid_step)]


class SweepRow(NamedTuple):
    """Aggregates for one grid point; value is its place on the swept axis, p or r.

    Count statistics are natural logs (-inf when the statistic is zero);
    wall_ms is measurement noise and excluded from reproducibility claims.
    Every row covers all of the point's instances: a point that cannot be
    counted fails the sweep instead.
    """

    value: float
    p_eff: float
    yes_fraction: float
    mean_count_log: float
    median_count_log: float
    mean_nodes: float
    wall_ms: float


def sweep_header(vary: str) -> list[str]:
    """Sweep CSV columns, the first named after the swept axis."""
    return [vary] + CSV_HEADER.split(",")[1:]


def grid_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid, rounded to stay stable across platforms;
    at most MAX_GRID_POINTS points."""
    if step <= 0:
        raise ValueError("grid step must be positive")
    if stop < start:
        raise ValueError("grid stop must be >= start")
    steps = (stop - start) / step
    if not all(map(math.isfinite, (start, stop, step, steps))):
        raise ValueError(f"grid start {start}, stop {stop} and step {step} must be "
                         "finite and span a finite number of steps")
    npts = int(math.floor(steps + 1e-9)) + 1
    if npts > MAX_GRID_POINTS:
        raise ValueError(f"grid of {npts} points exceeds the limit of {MAX_GRID_POINTS}")
    return [round(start + i * step, 12) for i in range(npts)]


def instance_seed(base_seed: int, point_index: int, instance_index: int) -> int:
    """Derived per-instance seed; pure, so any instance can be regenerated alone."""
    return mix64(base_seed, point_index, instance_index)


def critical_value(config: SweepConfig) -> float:
    """The critical point on the swept axis: the critical tightness at the fixed
    r, or the critical density at the fixed p's effective tightness."""
    base = config.base
    if config.vary == "p":
        return critical_tightness(base.alpha, base.r, config.divisor)
    return critical_density(base.alpha, derive_sizes(base).p_eff, config.divisor)


def _generate_and_count(params: RbParams) -> CountResult:
    return count_backtrack(generate(params))


def _check_batch(instances: int, jobs: int) -> None:
    if instances < 1:
        raise ValueError(f"instances per point must be >= 1, got {instances}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def _count_points(points: Sequence[RbParams], instances: int, jobs: int
                  ) -> Iterator[tuple[RbParams, DerivedSizes, list[CountResult], float]]:
    """For each point in order: the point, its derived sizes, its instances'
    results and the ms they took.

    The instances of the point at index i are seeded instance_seed(point.seed,
    i, ii) and counted in order, in this process or on one process pool shared
    by every point.  The pool has min(jobs, ceil(instances / _CHUNK), CPUs)
    workers, as more would get no chunk or no CPU, and is not opened for one.
    """
    _check_batch(instances, jobs)
    workers = min(jobs, -(-instances // _CHUNK), os.cpu_count() or 1)
    if workers > 1:
        # loaded only for a pool: at the top it would slow every command's start
        import concurrent.futures

        opened = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    else:
        opened = contextlib.nullcontext()
    with opened as pool:
        for index, point in enumerate(points):
            started = time.perf_counter()
            sizes = derive_sizes(point)
            batch = [with_seed(point, instance_seed(point.seed, index, ii))
                     for ii in range(instances)]
            results = list(map(_generate_and_count, batch) if pool is None
                           else pool.map(_generate_and_count, batch, chunksize=_CHUNK))
            yield point, sizes, results, (time.perf_counter() - started) * 1000.0


def _log_of_int(x: int) -> float:
    return math.log(x) if x > 0 else -math.inf


def _log_mean(values: Sequence[int]) -> float:
    return _log_of_int(sum(values)) - math.log(len(values))


def _log_median(values: Sequence[int]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return _log_of_int(ordered[mid])
    return _log_of_int(ordered[mid - 1] + ordered[mid]) - math.log(2.0)


def sweep_tightness(config: SweepConfig,
                    progress: Callable[[SweepRow], None] | None = None) -> list[SweepRow]:
    """Run the grid, counting config.instances_per_point instances per point.

    Rows come back in grid order regardless of config.jobs; identical configs
    give identical rows (wall_ms aside).
    """
    rows = []
    for point, sizes, done, wall_ms in _count_points(
            config.points, config.instances_per_point, config.jobs):
        counts = [res.count for res in done]
        yes = sum(1 for res in done
                  if decide_from_count(res.count, sizes.d, point.n, config.divisor))
        row = SweepRow(
            value=getattr(point, config.vary),
            p_eff=sizes.p_eff,
            yes_fraction=yes / config.instances_per_point,
            mean_count_log=_log_mean(counts),
            median_count_log=_log_median(counts),
            mean_nodes=sum(res.nodes_visited for res in done) / len(done),
            wall_ms=wall_ms,
        )
        rows.append(row)
        if progress is not None:
            progress(row)
    return rows


def crossing_point(rows: Sequence[SweepRow]) -> float | None:
    """Grid value where yes_fraction first crosses 0.5, linearly interpolated."""
    for prev, cur in zip(rows, rows[1:]):
        if prev.yes_fraction >= 0.5 > cur.yes_fraction:
            rise = cur.yes_fraction - prev.yes_fraction
            return prev.value + (0.5 - prev.yes_fraction) * (cur.value - prev.value) / rise
    return None


# ---------------------------------------------------------------------------
# accuracy and estimator-comparison tables
# ---------------------------------------------------------------------------


TABLE_HEADER = ("k", "n", "alpha", "r", "p", "p_eff", "instances")
COMPARISON_HEADER = TABLE_HEADER + ("mean_count", "mean_count_log", "expected", "log_expected")


def accuracy_header(deltas: Sequence[float]) -> tuple[str, ...]:
    return TABLE_HEADER + tuple(f"coverage_delta_{_fmt(d)}" for d in deltas)


class _TableRow(NamedTuple):
    """A table row's leading cells: the point and its instance count."""

    k: int
    n: int
    alpha: float
    r: float
    p: float
    p_eff: float
    instances: int


def _table_point(point: RbParams, instances: int, jobs: int) -> tuple:
    """The row's _TableRow lead, the closed-form ExpectedCount at p_eff and
    the exact counts of the point's instances."""
    [(_, sizes, results, _)] = _count_points([point], instances, jobs)
    lead = _TableRow(point.k, point.n, point.alpha, point.r, point.p, sizes.p_eff, instances)
    return (lead, expected_count(point.n, sizes.d, sizes.m, sizes.p_eff),
            [res.count for res in results])


class AccuracyRow(NamedTuple):
    lead: _TableRow
    coverage: tuple[float, ...]  # aligned with the delta list


def accuracy_table(point: RbParams, deltas: Sequence[float], *, instances: int = 300,
                   jobs: int = 1) -> AccuracyRow:
    """Fraction of the point's instances whose exact count X lands strictly
    inside ((1-delta)*E, (1+delta)*E), for each delta; E is the mean count at
    the point's effective tightness: ae_count's interval.  point.seed seeds
    the instances."""
    estimates = [ae_count(point, delta) for delta in deltas]
    lead, _, counts = _table_point(point, instances, jobs)
    return AccuracyRow(lead, coverage=tuple(
        sum(1 for x in counts if est.interval_low < x < est.interval_high) / instances
        for est in estimates))


class ComparisonRow(NamedTuple):
    lead: _TableRow
    mean_count: float       # sample mean of the exact counts
    mean_count_log: float
    expected: float         # closed-form mean at the effective tightness
    log_expected: float


def estimator_comparison(point: RbParams, *, instances: int = 300, jobs: int = 1) -> ComparisonRow:
    """Sample mean of the point's exact counts next to the closed-form mean;
    point.seed seeds the instances."""
    lead, mean, counts = _table_point(point, instances, jobs)
    return ComparisonRow(lead, mean_count=sum(counts) / len(counts),
                         mean_count_log=_log_mean(counts),
                         expected=mean.expected, log_expected=mean.log_expected)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _cells(value) -> list[str]:
    if isinstance(value, tuple):
        return [cell for item in value for cell in _cells(item)]
    return [str(value) if isinstance(value, int) else _fmt(value)]


def emit_csv(header: Sequence[str], rows: Iterable, sink: TextIO) -> None:
    """Write rows, tuples such as SweepRow, under ``header``: fields in order,
    nested tuples flattened, ints in decimal and floats as repr, so they keep
    full precision."""
    sink.write(",".join(header) + "\n")
    for row in rows:
        cells = _cells(row)
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells for {len(header)} columns")
        sink.write(",".join(cells) + "\n")


def emit_svg_plot(rows: Sequence[SweepRow], sink: TextIO,
                  marker: float | None = None, title: str = "") -> None:
    """Minimal self-contained SVG: yes_fraction against the grid value, with
    an optional vertical marker (typically the critical tightness)."""
    width, height = 640, 420
    ml, mr, mt, mb = 60, 20, 30, 45
    xs = [row.value for row in rows]
    lo, hi = min(xs), max(xs)
    span = (hi - lo) or 1.0

    def px(x: float) -> float:
        return ml + (x - lo) / span * (width - ml - mr)

    def py(y: float) -> float:
        return mt + (1.0 - y) * (height - mt - mb)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    if title:
        out.append(f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
                   f'font-size="13">{title}</text>')
    out.append(f'<line x1="{ml}" y1="{py(0)}" x2="{width - mr}" y2="{py(0)}" '
               'stroke="black"/>')
    out.append(f'<line x1="{ml}" y1="{py(0)}" x2="{ml}" y2="{mt}" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        out.append(f'<text x="{ml - 8}" y="{py(frac) + 4:.1f}" text-anchor="end" '
                   f'font-size="11">{frac}</text>')
        out.append(f'<line x1="{ml - 4}" y1="{py(frac)}" x2="{ml}" y2="{py(frac)}" '
                   'stroke="black"/>')
    for x in (lo, lo + span / 2, hi):
        out.append(f'<text x="{px(x):.1f}" y="{height - mb + 16}" '
                   f'text-anchor="middle" font-size="11">{x:.3g}</text>')
        out.append(f'<line x1="{px(x):.1f}" y1="{py(0)}" x2="{px(x):.1f}" '
                   f'y2="{py(0) + 4}" stroke="black"/>')
    if marker is not None and lo <= marker <= hi:
        out.append(f'<line x1="{px(marker):.1f}" y1="{mt}" x2="{px(marker):.1f}" '
                   f'y2="{py(0)}" stroke="red" stroke-dasharray="5,4"/>')
        out.append(f'<text x="{px(marker) + 4:.1f}" y="{mt + 12}" fill="red" '
                   f'font-size="11">{marker:.4f}</text>')
    pts = " ".join(f"{px(row.value):.2f},{py(row.yes_fraction):.2f}" for row in rows)
    out.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" '
               'stroke-width="2"/>')
    for row in rows:
        out.append(f'<circle cx="{px(row.value):.2f}" cy="{py(row.yes_fraction):.2f}" '
                   'r="3" fill="steelblue"/>')
    out.append("</svg>")
    sink.write("\n".join(out) + "\n")


def write_manifest(entries: dict, sink: TextIO) -> None:
    """Plain-text key = value manifest describing an experiment run."""
    from . import __version__

    stamped = dict(entries)
    stamped.setdefault("rbcount_version", __version__)
    stamped.setdefault("python_version", sys.version.split()[0])
    for key in sorted(stamped):
        sink.write(f"{key} = {stamped[key]}\n")


def sweep_manifest(config: SweepConfig) -> dict:
    """Manifest entries for a sweep: the full config plus derived context.

    d is constant along either axis; m only along p, so it is recorded
    only there.  method names the one counter, count_backtrack.
    """
    base, vary = config.base, config.vary
    sizes = derive_sizes(base)
    entries = {
        "experiment": "sweep",
        "k": base.k, "n": base.n, "alpha": base.alpha,
        "grid_start": getattr(base, vary), "grid_stop": config.grid_stop,
        "grid_step": config.grid_step, "vary": vary,
        "divisor": config.divisor,
        "instances_per_point": config.instances_per_point,
        "base_seed": base.seed, "method": "backtrack",
        "jobs": config.jobs, "d": sizes.d,
    }
    if vary == "p":
        entries.update(m=sizes.m, r=base.r, critical_tightness=critical_value(config))
    else:
        entries.update(p=base.p, critical_density=critical_value(config))
    return entries
