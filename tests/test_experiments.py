"""Sweeps, tables, and their CSV/SVG/manifest outputs."""

from __future__ import annotations

import concurrent.futures
import csv
import io
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbcount import experiments
from rbcount.exact_count import count_backtrack, count_brute, decide_from_count
from rbcount.experiments import (COMPARISON_HEADER, MAX_GRID_POINTS, AccuracyRow,
                                 SweepConfig, SweepRow, _TableRow,
                                 accuracy_header, accuracy_table,
                                 crossing_point, emit_csv, emit_svg_plot,
                                 estimator_comparison, grid_values,
                                 instance_seed, sweep_header, sweep_manifest,
                                 sweep_tightness, write_manifest)
from rbcount.rb_model import MASK64, RbParams, derive_sizes, generate
from rbcount.theory import critical_density, expected_count, second_moment_ratio

TINY = SweepConfig(RbParams(k=2, n=5, alpha=0.8, r=1.5, p=0.1), grid_stop=0.5,
                   grid_step=0.1, instances_per_point=20)


def strip_wall(rows):
    return [row._replace(wall_ms=0.0) for row in rows]


def mk_row(p, yes):
    return SweepRow(value=p, p_eff=p, yes_fraction=yes, mean_count_log=0.0,
                    median_count_log=0.0, mean_nodes=0.0, wall_ms=0.0)


# === grid ===


def test_grid_values_inclusive_and_rounded():
    assert grid_values(0.05, 0.45, 0.02) == [round(0.05 + 0.02 * i, 12)
                                             for i in range(21)]
    assert grid_values(0.1, 0.1, 0.05) == [0.1]
    assert grid_values(1.0, 2.0, 0.5) == [1.0, 1.5, 2.0]
    # an endpoint that only lands on the grid after the epsilon nudge
    assert grid_values(0.0, 0.3, 0.1)[-1] == 0.3


def test_grid_values_validation():
    with pytest.raises(ValueError):
        grid_values(0.1, 0.5, 0.0)
    with pytest.raises(ValueError):
        grid_values(0.5, 0.1, 0.1)


def test_grid_values_bounds_the_point_count():
    assert len(grid_values(1.0, 1e5, 1.0)) == MAX_GRID_POINTS == 10 ** 5
    with pytest.raises(ValueError, match="^grid of 100001 points exceeds the limit of 100000$"):
        grid_values(0.0, 1e5, 1.0)
    with pytest.raises(ValueError, match="^grid of 999999999000000001 points"):
        grid_values(1.0, 1e9, 1e-9)


@pytest.mark.parametrize("start,stop,step", [
    (0.1, math.inf, 0.1), (0.1, 0.3, math.inf), (math.nan, 0.3, 0.1),
    (-math.inf, 0.3, 0.1), (0.1, math.nan, 0.1), (1e-300, 1e300, 1e-300),
])
def test_grid_values_rejects_non_finite_grids(start, stop, step):
    with pytest.raises(ValueError, match="must be finite and span a finite number"):
        grid_values(start, stop, step)


# === sweeps ===


def test_sweep_rows_match_by_hand_recount():
    rows = sweep_tightness(TINY)
    base = TINY.base
    values = grid_values(base.p, TINY.grid_stop, TINY.grid_step)
    assert [row.value for row in rows] == values

    # regenerate grid point 0 from scratch and reproduce every statistic
    gi = 0
    params0 = RbParams(base.k, base.n, base.alpha, base.r, values[gi])
    sizes = derive_sizes(params0)
    counts, nodes = [], []
    for ii in range(TINY.instances_per_point):
        seed = instance_seed(base.seed, gi, ii)
        inst = generate(RbParams(base.k, base.n, base.alpha, base.r,
                                 values[gi], seed))
        res = count_backtrack(inst)
        counts.append(res.count)
        nodes.append(res.nodes_visited)
    row = rows[gi]
    assert row.p_eff == sizes.t_nogoods / sizes.d ** base.k
    yes = sum(1 for c in counts
              if decide_from_count(c, sizes.d, base.n, TINY.divisor))
    assert row.yes_fraction == yes / TINY.instances_per_point
    assert row.mean_count_log == pytest.approx(
        math.log(sum(counts) / len(counts)), rel=1e-12)
    ordered = sorted(counts)
    assert row.median_count_log == pytest.approx(
        math.log((ordered[9] + ordered[10]) / 2.0), rel=1e-12)
    assert row.mean_nodes == sum(nodes) / len(nodes)


@given(base_seed=st.integers(0, MASK64), point_index=st.integers(0),
       instance_index=st.integers(0))
def test_instance_seed_is_always_a_valid_seed(base_seed, point_index, instance_index):
    # the sweep sets it with _replace, which does not check it
    assert 0 <= instance_seed(base_seed, point_index, instance_index) <= MASK64


def test_sweep_is_deterministic_apart_from_timing():
    assert strip_wall(sweep_tightness(TINY)) == strip_wall(sweep_tightness(TINY))


def test_sweep_parallel_equals_serial():
    serial = sweep_tightness(TINY)
    parallel = sweep_tightness(TINY._replace(jobs=2))
    assert strip_wall(serial) == strip_wall(parallel)


class RecordingExecutor:
    """Stands in for the process pool: records its size, maps in process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize("instances,cpus,sizes", [(20, 8, [5]), (20, 2, [2]), (4, 8, [])])
def test_jobs_are_bounded_by_chunks_and_cpus(instances, cpus, sizes, monkeypatch):
    # No real process starts: a huge --jobs asks for a pool of at most one
    # worker per chunk of 4 instances and per CPU, and none for one worker.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    config = TINY._replace(instances_per_point=instances)
    many = sweep_tightness(config._replace(jobs=10 ** 6))
    assert RecordingExecutor.sizes == sizes
    assert strip_wall(many) == strip_wall(sweep_tightness(config))


def test_sweep_methods_agree_on_counts(monkeypatch):
    # the same sweep with the enumerating oracle counting each regenerated instance
    bt = sweep_tightness(TINY._replace(instances_per_point=8))
    monkeypatch.setattr(experiments, "count_backtrack", count_brute)
    br = sweep_tightness(TINY._replace(instances_per_point=8))
    assert len(bt) == len(br) == 5
    for a, b in zip(bt, br):
        assert (a.value, a.p_eff, a.yes_fraction) == (b.value, b.p_eff, b.yes_fraction)
        assert a.mean_count_log == b.mean_count_log
        assert a.median_count_log == b.median_count_log
        assert a.mean_nodes < b.mean_nodes  # brute always walks the full tree


def test_sweep_over_density_axis():
    config = SweepConfig(RbParams(k=2, n=5, alpha=0.8, r=0.5, p=0.2),
                         grid_stop=1.5, grid_step=0.5, vary="r",
                         instances_per_point=5)
    rows = sweep_tightness(config)
    assert [row.value for row in rows] == [0.5, 1.0, 1.5]  # r on this axis
    assert len({row.p_eff for row in rows}) == 1       # tightness held fixed


@pytest.fixture
def generated(monkeypatch):
    """The parameter sets experiments generates instances from, in order."""
    calls = []

    def counting_generate(params):
        calls.append(params)
        return generate(params)

    monkeypatch.setattr(experiments, "generate", counting_generate)
    return calls


def test_a_point_within_the_brute_cap_generates_each_instance_once(generated):
    config = TINY._replace(instances_per_point=4, grid_stop=0.2)
    assert len(sweep_tightness(config)) == 2
    assert len(generated) == 8 and len(set(generated)) == 8


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ValueError):
        sweep_tightness(SweepConfig(**(TINY._asdict() | {"vary": "q"})))
    with pytest.raises(ValueError, match="vary must be 'p' or 'r'"):
        SweepConfig(TINY.base, grid_stop=0.5, grid_step=0.1, vary="alpha")


@pytest.mark.parametrize("change,message", [
    ({"jobs": 0}, "jobs must be >= 1, got 0"),
    ({"jobs": -1}, "jobs must be >= 1, got -1"),
    ({"divisor": 1}, "divisor must be an integer >= 2, got 1"),
    ({"grid_stop": 1.2, "grid_step": 0.3}, r"tightness p must lie in \(0, 1\), got 1.0"),
    ({"vary": "r", "grid_stop": 1e300, "grid_step": 1e-300}, "finite number of steps"),
])
def test_sweep_config_checks_every_grid_point_up_front(change, message):
    with pytest.raises(ValueError, match=message):
        SweepConfig(**(TINY._asdict() | change))


def test_sweep_config_points_follow_the_grid():
    points = TINY.points
    assert [pt.p for pt in points] == grid_values(0.1, 0.5, 0.1)
    assert {pt._replace(p=0.1) for pt in points} == {TINY.base}


def test_sweep_progress_callback_sees_rows_in_order():
    seen = []
    rows = sweep_tightness(TINY._replace(instances_per_point=4),
                           progress=seen.append)
    assert seen == rows


# === crossing ===


def test_crossing_point_interpolates():
    rows = [mk_row(0.1, 1.0), mk_row(0.2, 0.9), mk_row(0.3, 0.4), mk_row(0.4, 0.0)]
    assert crossing_point(rows) == pytest.approx(0.28)


def test_crossing_point_on_exact_half():
    rows = [mk_row(0.1, 0.5), mk_row(0.2, 0.3)]
    assert crossing_point(rows) == pytest.approx(0.1)


def test_crossing_point_none_cases():
    assert crossing_point([]) is None
    assert crossing_point([mk_row(0.1, 0.9)]) is None
    assert crossing_point([mk_row(0.1, 0.9), mk_row(0.2, 0.8)]) is None
    assert crossing_point([mk_row(0.1, 0.2), mk_row(0.2, 0.1)]) is None


def test_crossing_point_takes_first_crossing():
    rows = [mk_row(0.1, 0.8), mk_row(0.2, 0.2), mk_row(0.3, 0.9), mk_row(0.4, 0.1)]
    assert crossing_point(rows) == pytest.approx(0.1 + 0.3 * 0.1 / 0.6)


# === tables ===


def test_accuracy_coverage_grows_with_interval_width():
    deltas = (0.3, 0.5, 0.7, 0.9)
    row = accuracy_table(RbParams(2, 6, 0.8, 1.5, 0.25), deltas, instances=120)
    assert row.lead.instances == 120
    assert len(row.coverage) == len(deltas)
    for narrow, wide in zip(row.coverage, row.coverage[1:]):
        assert narrow <= wide
    assert all(0.0 <= c <= 1.0 for c in row.coverage)
    again = accuracy_table(RbParams(2, 6, 0.8, 1.5, 0.25), deltas, instances=120)
    assert again == row


def test_accuracy_table_rejects_bad_delta(monkeypatch):
    def no_instances(params):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(experiments, "generate", no_instances)  # ae_count checks first
    point = RbParams(2, 5, 0.8, 1.5, 0.2)
    for delta in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1\], got "):
            accuracy_table(point, [0.5, delta])


@pytest.mark.parametrize("table", [
    lambda **kw: accuracy_table(RbParams(2, 5, 0.8, 1.5, 0.2), [0.5], **kw),
    lambda **kw: estimator_comparison(RbParams(2, 5, 0.8, 1.5, 0.2), **kw),
], ids=["accuracy", "comparison"])
@pytest.mark.parametrize("jobs", [0, -2])
def test_tables_reject_jobs_below_one(table, jobs, generated):
    with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
        table(instances=3, jobs=jobs)
    assert generated == []


def test_tables_seed_instances_from_the_point():
    point = RbParams(2, 5, 0.8, 1.5, 0.2, seed=7)
    row = estimator_comparison(point, instances=6)
    counts = [count_backtrack(generate(point._replace(
        seed=instance_seed(7, 0, ii)))).count for ii in range(6)]
    assert row.mean_count == sum(counts) / 6
    assert estimator_comparison(point._replace(seed=8),
                                instances=6).mean_count != row.mean_count


def test_estimator_comparison_mean_tracks_closed_form():
    point = RbParams(2, 6, 0.8, 1.5, 0.25)
    instances = 200
    row = estimator_comparison(point, instances=instances)
    sizes = derive_sizes(point)
    p_eff = sizes.t_nogoods / sizes.d ** point.k
    assert row.lead.p_eff == p_eff
    expected = expected_count(point.n, sizes.d, sizes.m, p_eff).expected
    assert row.expected == expected
    assert row.log_expected == pytest.approx(math.log(expected))
    # the pairwise-satisfaction identity gives the count's variance exactly:
    # Var X = E^2 (1/ratio - 1), so the sample mean sits within a few SE of E
    ratio = second_moment_ratio(point.n, point.k, sizes.d, sizes.m, p_eff)
    se = expected * math.sqrt((1.0 / ratio - 1.0) / instances)
    assert abs(row.mean_count - expected) < 4.0 * se


# === renderers ===


def test_csv_header_and_round_trip():
    rows = sweep_tightness(TINY._replace(instances_per_point=4))
    out = io.StringIO()
    emit_csv(sweep_header("p"), rows, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == ("p,p_eff,yes_fraction,mean_count_log,"
                        "median_count_log,mean_nodes,wall_ms")
    parsed = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert len(parsed) == len(rows)
    for rec, row in zip(parsed, rows):
        assert float(rec["p"]) == row.value            # repr round-trips exactly
        assert float(rec["p_eff"]) == row.p_eff
        assert float(rec["yes_fraction"]) == row.yes_fraction
        assert float(rec["mean_count_log"]) == row.mean_count_log
        assert float(rec["median_count_log"]) == row.median_count_log
        assert float(rec["mean_nodes"]) == row.mean_nodes
        assert float(rec["wall_ms"]) == row.wall_ms


def test_accuracy_csv_shape():
    row = AccuracyRow(_TableRow(k=2, n=5, alpha=0.8, r=1.5, p=0.2, p_eff=0.1875, instances=40),
                      coverage=(0.5, 0.75))
    out = io.StringIO()
    emit_csv(accuracy_header((0.5, 0.9)), [row], out)
    header, body = out.getvalue().splitlines()
    assert header.startswith("k,n,alpha,r,p,p_eff,instances,coverage_delta_")
    assert body.split(",")[:2] == ["2", "5"]
    assert body.split(",")[-2:] == ["0.5", "0.75"]


def test_accuracy_header_refuses_a_repeated_delta():
    assert ",".join(accuracy_header([0.5, 0.9])) == (
        "k,n,alpha,r,p,p_eff,instances,coverage_delta_0.5,coverage_delta_0.9")
    with pytest.raises(ValueError, match=r"^repeated delta 0\.5$"):
        accuracy_header([0.5, 0.9, 0.5])


def test_comparison_csv_shape():
    row = estimator_comparison(RbParams(2, 5, 0.8, 1.5, 0.2), instances=10)
    out = io.StringIO()
    emit_csv(COMPARISON_HEADER, [row], out)
    header, body = out.getvalue().splitlines()
    assert header == ("k,n,alpha,r,p,p_eff,instances,mean_count,"
                      "mean_count_log,expected,log_expected")
    assert float(body.split(",")[7]) == row.mean_count


def test_emit_csv_rejects_a_row_that_does_not_fit_its_header():
    out = io.StringIO()
    with pytest.raises(ValueError, match=r"^row has 7 cells for 6 columns$"):
        emit_csv(sweep_header("p")[:-1], [mk_row(0.1, 1.0)], out)
    assert out.getvalue() == ",".join(sweep_header("p")[:-1]) + "\n"  # the header only


def test_svg_plot_contents():
    rows = [mk_row(0.1, 1.0), mk_row(0.2, 0.6), mk_row(0.3, 0.0)]
    out = io.StringIO()
    emit_svg_plot(rows, out, marker=0.22, title="tightness sweep")
    svg = out.getvalue()
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert "polyline" in svg and svg.count("<circle") == 3
    assert 'stroke="red"' in svg and "0.2200" in svg
    assert "tightness sweep" in svg

    out = io.StringIO()
    emit_svg_plot(rows, out)  # no marker, no title
    assert 'stroke="red"' not in out.getvalue()


def test_svg_marker_outside_grid_is_dropped():
    rows = [mk_row(0.1, 1.0), mk_row(0.3, 0.0)]
    out = io.StringIO()
    emit_svg_plot(rows, out, marker=0.9)
    assert 'stroke="red"' not in out.getvalue()


# === manifests ===


def test_write_manifest_sorts_and_stamps():
    out = io.StringIO()
    write_manifest({"beta": 2, "alpha": "one"}, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "alpha = one"
    assert lines[1] == "beta = 2"
    assert any(line.startswith("python_version = ") for line in lines)
    assert any(line.startswith("rbcount_version = ") for line in lines)


def test_write_manifest_keeps_explicit_version():
    out = io.StringIO()
    write_manifest({"rbcount_version": "x.y.z"}, out)
    assert "rbcount_version = x.y.z" in out.getvalue().splitlines()


def test_sweep_manifest_for_tightness_axis():
    entries = sweep_manifest(TINY)
    assert entries["experiment"] == "sweep"
    assert entries["vary"] == "p"
    assert entries["r"] == 1.5
    assert entries["d"] == 4 and entries["m"] == 12
    assert 0.0 < entries["critical_tightness"] < 1.0


def test_sweep_manifest_for_density_axis():
    config = TINY._replace(base=RbParams(2, 5, 0.8, 0.5, 0.2), vary="r",
                           grid_stop=1.5, grid_step=0.5)
    entries = sweep_manifest(config)
    assert entries["vary"] == "r"
    assert entries["p"] == 0.2
    assert "critical_tightness" not in entries
    # m changes along the density axis, so only d is recorded
    assert "m" not in entries and entries["d"] == 4
    # at the effective tightness t/d^k = 3/16 that p=0.2 rounds to at d=4
    assert entries["critical_density"] == critical_density(0.8, 3 / 16, 2)
