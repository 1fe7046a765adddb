"""Grid experiments over the random instance family.

Sweeps count every generated instance exactly and report, per grid point,
the fraction meeting the count threshold alongside count statistics.  Seeds
for instance (point, index) pairs are derived with the same 64-bit mix the
generator uses, so results are reproducible and independent of worker count.
"""

from __future__ import annotations

import concurrent.futures
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TextIO

from .exact_count import CapExceeded, count_backtrack, count_brute, decide_from_count
from .rb_model import RbParams, derive_sizes, generate, mix64
from .theory import critical_tightness, expected_count

CSV_HEADER = "p,p_eff,yes_fraction,mean_count_log,median_count_log,mean_nodes,wall_ms"


@dataclass(frozen=True)
class SweepConfig:
    """A one-dimensional grid over tightness p (vary="p") or density r
    (vary="r"), everything else held fixed."""

    k: int
    n: int
    alpha: float
    r: float                 # fixed density when vary == "p"
    grid_start: float
    grid_stop: float
    grid_step: float
    vary: str = "p"
    p: float = 0.5           # fixed tightness when vary == "r"
    divisor: int = 2
    instances_per_point: int = 100
    base_seed: int = 0
    method: str = "backtrack"
    brute_cap: int = 10 ** 8
    jobs: int = 1

    def __post_init__(self):
        _check_instances(self.instances_per_point)


@dataclass(frozen=True)
class SweepRow:
    """Aggregates for one grid point.

    Count statistics are natural logs (-inf when the statistic is zero);
    wall_ms is measurement noise and excluded from reproducibility claims.
    cap_exceeded counts instances the brute-force cap skipped; skipped
    instances count as NO in yes_fraction.
    """

    p: float
    p_eff: float
    yes_fraction: float
    mean_count_log: float
    median_count_log: float
    mean_nodes: float
    wall_ms: float
    cap_exceeded: int = 0


def grid_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid, rounded to stay stable across platforms."""
    if step <= 0:
        raise ValueError("grid step must be positive")
    if stop < start:
        raise ValueError("grid stop must be >= start")
    npts = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [round(start + i * step, 12) for i in range(npts)]


def _check_instances(instances: int) -> None:
    if instances < 1:
        raise ValueError(f"instances per point must be >= 1, got {instances}")


def instance_seed(base_seed: int, point_index: int, instance_index: int) -> int:
    """Derived per-instance seed; pure, so any instance can be regenerated alone."""
    return mix64(base_seed, point_index, instance_index)


def _point_params(config: SweepConfig, value: float) -> RbParams:
    if config.vary == "p":
        return RbParams(config.k, config.n, config.alpha, config.r, value)
    if config.vary == "r":
        return RbParams(config.k, config.n, config.alpha, value, config.p)
    raise ValueError(f"vary must be 'p' or 'r', got {config.vary!r}")


def _count_task(task):
    k, n, alpha, r, p, seed, method, cap = task
    params = RbParams(k, n, alpha, r, p, seed)
    instance = generate(params)
    try:
        if method == "brute":
            res = count_brute(instance, cap=cap)
        else:
            res = count_backtrack(instance)
    except CapExceeded:
        return None
    return res.count, res.nodes_visited


def _log_of_int(x: int) -> float:
    return math.log(x) if x > 0 else -math.inf


def _log_mean(values: Sequence[int]) -> float:
    total = sum(values)
    return _log_of_int(total) - math.log(len(values)) if total else -math.inf


def _log_median(values: Sequence[int]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return _log_of_int(ordered[mid])
    twice = ordered[mid - 1] + ordered[mid]
    return _log_of_int(twice) - math.log(2.0) if twice else -math.inf


def sweep_tightness(config: SweepConfig,
                    progress: Callable[[SweepRow], None] | None = None) -> list[SweepRow]:
    """Run the grid, counting config.instances_per_point instances per point.

    Rows come back in grid order regardless of config.jobs; identical configs
    give identical rows (wall_ms aside).
    """
    values = grid_values(config.grid_start, config.grid_stop, config.grid_step)
    if config.method not in ("backtrack", "brute"):
        raise ValueError(f"unknown counting method {config.method!r}")
    executor = None
    if config.jobs > 1:
        executor = concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs)
    rows = []
    try:
        for gi, value in enumerate(values):
            base = _point_params(config, value)
            sizes = derive_sizes(base)
            p_eff = sizes.t_nogoods / sizes.d ** config.k
            tasks = [
                (base.k, base.n, base.alpha, base.r, base.p,
                 instance_seed(config.base_seed, gi, ii), config.method,
                 config.brute_cap)
                for ii in range(config.instances_per_point)
            ]
            started = time.perf_counter()
            if executor is None:
                results = [_count_task(t) for t in tasks]
            else:
                results = list(executor.map(_count_task, tasks, chunksize=4))
            wall_ms = (time.perf_counter() - started) * 1000.0
            skipped = sum(1 for res in results if res is None)
            counts = [res[0] for res in results if res is not None]
            nodes = [res[1] for res in results if res is not None]
            yes = sum(
                1 for c in counts
                if decide_from_count(c, sizes.d, config.n, config.divisor).answer)
            row = SweepRow(
                p=value,
                p_eff=p_eff,
                yes_fraction=yes / config.instances_per_point,
                mean_count_log=_log_mean(counts) if counts else -math.inf,
                median_count_log=_log_median(counts) if counts else -math.inf,
                mean_nodes=sum(nodes) / len(nodes) if nodes else 0.0,
                wall_ms=wall_ms,
                cap_exceeded=skipped,
            )
            rows.append(row)
            if progress is not None:
                progress(row)
    finally:
        if executor is not None:
            executor.shutdown()
    return rows


def crossing_point(rows: Sequence[SweepRow]) -> float | None:
    """Grid value where yes_fraction first crosses 0.5, linearly interpolated."""
    for prev, cur in zip(rows, rows[1:]):
        if prev.yes_fraction >= 0.5 > cur.yes_fraction:
            rise = cur.yes_fraction - prev.yes_fraction
            if rise == 0:
                return prev.p
            return prev.p + (0.5 - prev.yes_fraction) * (cur.p - prev.p) / rise
    return None


# ---------------------------------------------------------------------------
# accuracy and estimator-comparison tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointSpec:
    """One fully specified parameter point for a table row."""

    k: int
    n: int
    alpha: float
    r: float
    p: float


@dataclass(frozen=True)
class AccuracyRow:
    point: PointSpec
    p_eff: float
    coverage: tuple[float, ...]  # aligned with the delta list
    instances: int


def accuracy_table(points: Iterable[PointSpec], deltas: Sequence[float], *,
                   instances: int = 300, base_seed: int = 0,
                   method: str = "backtrack", brute_cap: int = 10 ** 8,
                   jobs: int = 1) -> list[AccuracyRow]:
    """Fraction of instances whose exact count X lands strictly inside
    ((1-delta)*E, (1+delta)*E), for each point and each delta; E is the mean
    count at the point's effective tightness."""
    for delta in deltas:
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {delta}")
    rows = []
    for pi, point in enumerate(points):
        counts = _exact_counts(point, pi, instances, base_seed, method, brute_cap, jobs)
        base = RbParams(point.k, point.n, point.alpha, point.r, point.p)
        sizes = derive_sizes(base)
        p_eff = sizes.t_nogoods / sizes.d ** point.k
        expected = expected_count(point.n, sizes.d, sizes.m, p_eff).expected
        coverage = tuple(
            sum(1 for x in counts
                if (1.0 - delta) * expected < x < (1.0 + delta) * expected) / instances
            for delta in deltas)
        rows.append(AccuracyRow(point=point, p_eff=p_eff, coverage=coverage,
                                instances=instances))
    return rows


@dataclass(frozen=True)
class ComparisonRow:
    point: PointSpec
    p_eff: float
    mean_count: float       # sample mean of the exact counts
    mean_count_log: float
    expected: float         # closed-form mean at the effective tightness
    log_expected: float
    instances: int


def estimator_comparison(points: Iterable[PointSpec], *, instances: int = 300,
                         base_seed: int = 0, method: str = "backtrack",
                         brute_cap: int = 10 ** 8, jobs: int = 1) -> list[ComparisonRow]:
    """Sample mean of exact counts next to the closed-form mean, per point."""
    rows = []
    for pi, point in enumerate(points):
        counts = _exact_counts(point, pi, instances, base_seed, method, brute_cap, jobs)
        base = RbParams(point.k, point.n, point.alpha, point.r, point.p)
        sizes = derive_sizes(base)
        p_eff = sizes.t_nogoods / sizes.d ** point.k
        log_e, linear = expected_count(point.n, sizes.d, sizes.m, p_eff)
        rows.append(ComparisonRow(
            point=point,
            p_eff=p_eff,
            mean_count=sum(counts) / len(counts),
            mean_count_log=_log_mean(counts),
            expected=linear,
            log_expected=log_e,
            instances=instances,
        ))
    return rows


def _exact_counts(point: PointSpec, point_index: int, instances: int,
                  base_seed: int, method: str, brute_cap: int,
                  jobs: int) -> list[int]:
    _check_instances(instances)
    tasks = [
        (point.k, point.n, point.alpha, point.r, point.p,
         instance_seed(base_seed, point_index, ii), method, brute_cap)
        for ii in range(instances)
    ]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as executor:
            results = list(executor.map(_count_task, tasks, chunksize=4))
    else:
        results = [_count_task(t) for t in tasks]
    if any(res is None for res in results):
        raise CapExceeded("an instance exceeded the enumeration cap")
    return [res[0] for res in results]


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_csv(rows: Iterable[SweepRow], sink: TextIO) -> None:
    """Write sweep rows with the fixed header; floats keep full precision."""
    sink.write(CSV_HEADER + "\n")
    for row in rows:
        sink.write(",".join((
            _fmt(row.p), _fmt(row.p_eff), _fmt(row.yes_fraction),
            _fmt(row.mean_count_log), _fmt(row.median_count_log),
            _fmt(row.mean_nodes), _fmt(row.wall_ms))) + "\n")


def emit_accuracy_csv(rows: Iterable[AccuracyRow], deltas: Sequence[float],
                      sink: TextIO) -> None:
    head = ["k", "n", "alpha", "r", "p", "p_eff", "instances"]
    head += [f"coverage_delta_{_fmt(d)}" for d in deltas]
    sink.write(",".join(head) + "\n")
    for row in rows:
        cells = [str(row.point.k), str(row.point.n), _fmt(row.point.alpha),
                 _fmt(row.point.r), _fmt(row.point.p), _fmt(row.p_eff),
                 str(row.instances)]
        cells += [_fmt(c) for c in row.coverage]
        sink.write(",".join(cells) + "\n")


def emit_comparison_csv(rows: Iterable[ComparisonRow], sink: TextIO) -> None:
    sink.write("k,n,alpha,r,p,p_eff,instances,mean_count,mean_count_log,"
               "expected,log_expected\n")
    for row in rows:
        sink.write(",".join((
            str(row.point.k), str(row.point.n), _fmt(row.point.alpha),
            _fmt(row.point.r), _fmt(row.point.p), _fmt(row.p_eff),
            str(row.instances), _fmt(row.mean_count), _fmt(row.mean_count_log),
            _fmt(row.expected), _fmt(row.log_expected))) + "\n")


def emit_svg_plot(rows: Sequence[SweepRow], sink: TextIO,
                  marker: float | None = None, title: str = "") -> None:
    """Minimal self-contained SVG: yes_fraction against the grid value, with
    an optional vertical marker (typically the critical tightness)."""
    width, height = 640, 420
    ml, mr, mt, mb = 60, 20, 30, 45
    xs = [row.p for row in rows]
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
    pts = " ".join(f"{px(row.p):.2f},{py(row.yes_fraction):.2f}" for row in rows)
    out.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" '
               'stroke-width="2"/>')
    for row in rows:
        out.append(f'<circle cx="{px(row.p):.2f}" cy="{py(row.yes_fraction):.2f}" '
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
    """Manifest entries for a sweep: the full config plus derived context."""
    base = _point_params(config, grid_values(config.grid_start, config.grid_stop,
                                             config.grid_step)[0])
    entries = {
        "experiment": "sweep",
        "k": config.k, "n": config.n, "alpha": config.alpha,
        "grid_start": config.grid_start, "grid_stop": config.grid_stop,
        "grid_step": config.grid_step, "vary": config.vary,
        "divisor": config.divisor,
        "instances_per_point": config.instances_per_point,
        "base_seed": config.base_seed, "method": config.method,
        "jobs": config.jobs,
    }
    if config.vary == "p":
        entries["r"] = config.r
        entries["critical_tightness"] = critical_tightness(
            config.alpha, config.r, config.divisor)
    else:
        entries["p"] = config.p
    entries["d"] = derive_sizes(base).d
    entries["m"] = derive_sizes(base).m
    return entries
