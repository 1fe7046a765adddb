"""Ship-gate checks, one test per criterion.

Every test prints a single ``criterion N: PASS/FAIL (...)`` line with the
measured numbers; run ``pytest -s tests/test_acceptance.py`` to see the lines
even when everything passes.  The heavyweight item is criterion 3, which runs
the two full phase-transition sweeps (a couple of minutes single-threaded).
"""

from __future__ import annotations

import math
import random
import statistics
import time

import pytest

from rbcount.cnf_encode import count_models, encode_direct
from rbcount.exact_count import count_backtrack, count_brute, threshold_ceiling
from rbcount.experiments import (SweepConfig, accuracy_table,
                                 crossing_point, instance_seed, sweep_tightness)
from rbcount.rb_model import RbParams, derive_sizes, generate
from rbcount.theory import (critical_tightness, expected_count, h_eval,
                            second_moment_ratio)

from test_exact_count import EDGE_CASES, build, reference_count
from test_rb_model import params_for


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


# -- 1 -----------------------------------------------------------------


def test_criterion_1_critical_tightness_values():
    a = critical_tightness(0.8, 1.7, 2)
    b = critical_tightness(0.85, 1.4, 2)
    ok = abs(a - 0.210) <= 0.0005 and abs(b - 0.262) <= 0.0005
    report(1, ok, f"critical_tightness 0.8/1.7={a:.5f} (want 0.210±0.0005), "
                  f"0.85/1.4={b:.5f} (want 0.262±0.0005)")


# -- 2 -----------------------------------------------------------------


def sig5(x: int) -> float:
    return float(f"{x:.5g}")


def test_criterion_2_published_threshold_values():
    # (alpha, n) -> the d the rounding rule must produce, the exact ceiling
    # of d^(n/2), and the figure as printed (two are 5-significant-digit
    # renderings of the exact value; the other four are printed in full)
    table = [
        (0.80, 7, 5, 280, 280.0),
        (0.80, 10, 6, 7776, 7776.0),
        (0.80, 13, 8, 741456, 741460.0),
        (0.85, 9, 6, 3175, 3175.0),
        (0.85, 12, 8, 262144, 262144.0),
        (0.85, 15, 10, 31622777, 3.1623e7),
    ]
    results = []
    ok = True
    for alpha, n, want_d, want_ceiling, printed in table:
        sizes = derive_sizes(RbParams(2, n, alpha, 1.0, 0.5))
        ceiling = threshold_ceiling(sizes.d, n, 2)
        level = math.exp(n * math.log(sizes.d) / 2)
        ok &= sizes.d == want_d
        ok &= ceiling == want_ceiling
        ok &= ceiling == math.ceil(level) or abs(ceiling - level) < 1
        ok &= sig5(ceiling) == printed or float(ceiling) == printed
        results.append(f"{sizes.d}^{n}/2->{ceiling}")
    report(2, ok, "; ".join(results))


# -- 3 -----------------------------------------------------------------


@pytest.fixture(scope="module")
def transition_sweeps():
    out = {}
    for n in (7, 10):
        config = SweepConfig(RbParams(k=2, n=n, alpha=0.8, r=1.7, p=0.05, seed=0),
                             grid_stop=0.45, grid_step=0.02, divisor=2,
                             instances_per_point=100)
        started = time.perf_counter()
        rows = sweep_tightness(config)
        out[n] = (rows, time.perf_counter() - started)
    return out


def test_criterion_3_phase_transition_sweeps(transition_sweeps):
    windows = {7: (0.14, 0.30), 10: (0.16, 0.28)}
    details = []
    ok = True
    for n, (rows, wall) in transition_sweeps.items():
        low = [row for row in rows if row.value <= 0.10 + 1e-12]
        high = [row for row in rows if row.value >= 0.40 - 1e-12]
        ok &= all(row.yes_fraction == 1.0 for row in low)
        ok &= all(row.yes_fraction == 0.0 for row in high)
        cross = crossing_point(rows)
        lo, hi = windows[n]
        ok &= cross is not None and lo <= cross <= hi
        # shape guard: the yes curve may wiggle from sampling noise but must
        # never climb back up by more than noise scale
        running_min = 1.0
        for row in rows:
            ok &= row.yes_fraction <= running_min + 0.15
            running_min = min(running_min, row.yes_fraction)
        details.append(f"n={n}: crossing={cross:.4f} in [{lo},{hi}], "
                       f"wall={wall:.1f}s")
    ok &= transition_sweeps[10][1] < 900.0  # single-threaded budget
    report(3, ok, "; ".join(details))


# -- 4 -----------------------------------------------------------------


def test_criterion_4_counter_oracle_equivalence():
    rng = random.Random(20260401)
    agree = trials = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        k = rng.randint(2, min(4, n))
        d = rng.randint(2, 5)
        while d ** n > 60_000:
            d -= 1
        d = max(d, 2)
        m = rng.randint(1, 14)
        t = rng.randint(1, d ** k - 1)
        inst = generate(params_for(k, n, d, m, t, seed=rng.getrandbits(48)))
        trials += 1
        agree += count_brute(inst).count == count_backtrack(inst).count
    edge_agree = 0
    for n, d, constraints in EDGE_CASES:
        inst = build(n, d, constraints)
        want = reference_count(inst)
        edge_agree += (count_brute(inst).count == want
                       and count_backtrack(inst).count == want)
    ok = agree == trials == 200 and edge_agree == len(EDGE_CASES) >= 20
    report(4, ok, f"random agreement {agree}/{trials}, "
                  f"edge cases {edge_agree}/{len(EDGE_CASES)}")


# -- 5 -----------------------------------------------------------------


def test_criterion_5_sample_mean_matches_closed_form():
    params = RbParams(2, 7, 0.8, 1.5, 0.28)
    sizes = derive_sizes(params)
    assert (sizes.d, sizes.m, sizes.t_nogoods) == (5, 20, 7)
    expected = expected_count(7, 5, 20, 0.28).expected
    assert expected == pytest.approx(5 ** 7 * 0.72 ** 20, rel=1e-12)
    counts = []
    for ii in range(300):
        inst = generate(RbParams(2, 7, 0.8, 1.5, 0.28,
                                 seed=instance_seed(0, 0, ii)))
        counts.append(count_backtrack(inst).count)
    mean = statistics.fmean(counts)
    se = statistics.stdev(counts) / math.sqrt(len(counts))
    z = abs(mean - expected) / se
    report(5, z <= 3.0, f"mean={mean:.3f}, closed form={expected:.3f}, "
                        f"|z|={z:.2f} (allow 3)")


# -- 6 -----------------------------------------------------------------


def test_criterion_6_interval_coverage():
    deltas = (0.5, 0.6, 0.7, 0.8, 0.9)
    row = accuracy_table(RbParams(2, 7, 0.8, 1.5, 0.3, seed=0), deltas, instances=300)
    monotone = all(a <= b for a, b in zip(row.coverage, row.coverage[1:]))
    top = row.coverage[-1] * 100.0
    ok = monotone and abs(top - 83.33) <= 15.0
    report(6, ok, "coverage " + ", ".join(f"{c:.4f}" for c in row.coverage)
                  + f"; delta=0.9 gives {top:.2f}% (want 83.33±15)")


# -- 7 -----------------------------------------------------------------


def test_criterion_7_encoding_preserves_counts():
    rng = random.Random(777)
    agree = 0
    for _ in range(100):
        n = rng.randint(2, 6)
        k = rng.randint(2, min(3, n))
        d = rng.randint(2, 4)
        m = rng.randint(1, 10)
        t = rng.randint(1, d ** k - 1)
        inst = generate(params_for(k, n, d, m, t, seed=rng.getrandbits(48)))
        agree += count_models(encode_direct(inst)) == count_brute(inst).count
    report(7, agree == 100, f"boolean model count agreement {agree}/100")


# -- 8 -----------------------------------------------------------------


def test_criterion_8_second_moment_ratio():
    exact_one = (second_moment_ratio(6, 2, 4, 16, 0.0) == 1.0
                 and second_moment_ratio(6, 2, 4, 0, 0.25) == 1.0)
    ratios = []
    for n in (10, 20, 40):
        params = RbParams(2, n, 0.8, 1.7, 0.15)
        sizes = derive_sizes(params)
        p_eff = sizes.t_nogoods / sizes.d ** 2
        ratios.append(second_moment_ratio(n, 2, sizes.d, sizes.m, p_eff))
    increasing = ratios[0] < ratios[1] < ratios[2]
    ok = exact_one and increasing and all(0.0 < x <= 1.0 for x in ratios)
    report(8, ok, "ratio(p_eff=0)=1.0 exact, ratio(m=0)=1.0 exact; n=10,20,40 -> "
                  + ", ".join(f"{x:.4f}" for x in ratios))


# -- 9 -----------------------------------------------------------------


def test_criterion_9_pair_weight_curve():
    rng = random.Random(99)

    # h(0) == 0 exactly, whatever the parameters
    zeros_exact = all(
        h_eval(0.0, rng.randint(2, 60), rng.randint(2, 6),
               rng.uniform(0.05, 2.5), rng.uniform(0.3, 5.0),
               rng.uniform(0.01, 0.99)) == 0.0
        for _ in range(1000))

    # the sign of h(1) flips at 1 - e^(-alpha/r); locate the flip by bisection
    worst_gap = 0.0
    for _ in range(50):
        alpha = rng.uniform(0.05, 2.5)
        r = rng.uniform(0.3, 5.0)
        root = -math.expm1(-alpha / r)
        lo, hi = 1e-12, 1.0 - 1e-12
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if h_eval(1.0, 12, 2, alpha, r, mid) < 0.0:
                lo = mid
            else:
                hi = mid
        worst_gap = max(worst_gap, abs(0.5 * (lo + hi) - root))
    flip_ok = worst_gap < 1e-9

    # below the flip point (and with the growth condition) the curve tops out
    # at s = 0 on a fine grid
    grid = [i / 1000.0 for i in range(1001)]
    argmax_ok = True
    accepted = 0
    while accepted < 200:
        alpha = rng.uniform(0.05, 2.5)
        r = rng.uniform(0.3, 5.0)
        k = rng.randint(2, 5)
        p_star = -math.expm1(-alpha / r)
        p = rng.uniform(0.01, 0.99)
        if p >= p_star or k * math.exp(-alpha / r) < 1.0:
            continue
        accepted += 1
        n = rng.randint(3, 50)
        values = [h_eval(s, n, k, alpha, r, p) for s in grid]
        argmax_ok &= max(range(len(grid)), key=values.__getitem__) == 0

    ok = zeros_exact and flip_ok and argmax_ok
    report(9, ok, f"h(0)=0 for 1000 draws: {zeros_exact}; flip gap "
                  f"{worst_gap:.2e} (allow 1e-9); argmax at 0 for 200 draws: "
                  f"{argmax_ok}")
