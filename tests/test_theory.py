"""Closed forms: critical points, expected counts, pair probabilities."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from rbcount.exact_count import count_brute, int_nth_root, threshold_ceiling
from rbcount.rb_model import Constraint, Instance, RbParams, generate
from rbcount.theory import (PREDICT_CRITICAL, PREDICT_NO, PREDICT_YES, ae_count,
                            conditional_expected_count, critical_density,
                            critical_tightness, expected_count, h_eval,
                            pair_probabilities, second_moment_ratio)

from oracles import allows, satisfies

# === critical points ===


def test_critical_tightness_published_values():
    assert abs(critical_tightness(0.8, 1.7, 2) - 0.210) <= 0.0005
    assert abs(critical_tightness(0.85, 1.4, 2) - 0.262) <= 0.0005


def test_critical_tightness_infinite_divisor():
    # satisfiability threshold: 1 - exp(-alpha/r)
    got = critical_tightness(0.8, 1.7, math.inf)
    assert math.isclose(got, 1 - math.exp(-0.8 / 1.7), rel_tol=1e-12)
    assert got > critical_tightness(0.8, 1.7, 2)


def test_critical_pair_are_inverses():
    # both directions; r bounded away from 0 so p_cr stays representable
    rng = random.Random(42)
    for _ in range(1000):
        alpha = rng.uniform(0.05, 2.5)
        r = rng.uniform(0.3, 5.0)
        divisor = rng.choice([2, 3, 4, 7, 50])
        p_cr = critical_tightness(alpha, r, divisor)
        assert 0.0 < p_cr < 1.0
        r_back = critical_density(alpha, p_cr, divisor)
        assert abs(r_back - r) <= 1e-9 * r, (alpha, r, divisor)
        p = rng.uniform(0.01, 0.99)
        r_cr = critical_density(alpha, p, divisor)
        p_back = critical_tightness(alpha, r_cr, divisor)
        assert abs(p_back - p) <= 1e-9 * p, (alpha, p, divisor)


def test_critical_tightness_monotonicity():
    # increasing in alpha and divisor, decreasing in r
    assert critical_tightness(0.9, 1.7, 2) > critical_tightness(0.8, 1.7, 2)
    assert critical_tightness(0.8, 1.4, 2) > critical_tightness(0.8, 1.7, 2)
    assert critical_tightness(0.8, 1.7, 3) > critical_tightness(0.8, 1.7, 2)


def test_critical_point_validation():
    with pytest.raises(ValueError):
        critical_tightness(0.0, 1.7, 2)
    with pytest.raises(ValueError):
        critical_tightness(0.8, 1.7, 1)
    with pytest.raises(ValueError):
        critical_density(0.8, 1.5, 2)


# === expected count ===


def test_expected_count_tiny_enumeration():
    # every instance with one binary constraint on 2 variables and 1 nogood
    # has exactly 3 of the 4 assignments satisfying it
    counts = []
    for ng in itertools.product(range(2), repeat=2):
        inst = Instance(2, 2, (Constraint((0, 1), frozenset({ng})),))
        counts.append(count_brute(inst).count)
    assert counts == [3, 3, 3, 3]
    log_e, linear = expected_count(2, 2, 1, 0.25)
    assert math.isclose(linear, 3.0, rel_tol=1e-12)
    assert math.isclose(log_e, math.log(3), rel_tol=1e-12)


def test_expected_count_direct_arithmetic():
    log_e, linear = expected_count(7, 5, 20, 7 / 25)
    assert math.isclose(linear, 5 ** 7 * 0.72 ** 20, rel_tol=1e-12)


def test_expected_count_zero_tightness():
    log_e, linear = expected_count(6, 4, 9, 0.0)
    assert math.isclose(linear, 4 ** 6, rel_tol=1e-12)
    assert log_e == 6 * math.log(4)


def test_expected_count_overflow_goes_log():
    log_e, linear = expected_count(5000, 10, 3, 0.5)
    assert linear == math.inf
    assert math.isclose(log_e, 5000 * math.log(10) + 3 * math.log(0.5), rel_tol=1e-12)


def test_expected_count_validation():
    with pytest.raises(ValueError):
        expected_count(0, 4, 3, 0.2)
    with pytest.raises(ValueError):
        expected_count(4, 4, 3, 1.0)


# === thresholds ===


@pytest.mark.parametrize("d,n,expect", [
    (5, 7, 280), (6, 10, 7776), (8, 13, 741456),
    (6, 9, 3175), (8, 12, 262144), (10, 15, 31622777),
])
def test_threshold_ceiling_known_values(d, n, expect):
    assert threshold_ceiling(d, n, 2) == expect


def test_int_nth_root_random():
    rng = random.Random(7)
    for _ in range(500):
        t = rng.randint(1, 9)
        x = rng.getrandbits(rng.randint(1, 200))
        root = int_nth_root(x, t)
        assert root ** t <= x
        assert (root + 1) ** t > x


# === the moment-based estimate ===


def test_ae_count_predictions_by_side():
    yes = ae_count(RbParams(2, 13, 0.8, 1.7, 0.1), delta=0.9)
    assert yes.predicted == PREDICT_YES
    no = ae_count(RbParams(2, 13, 0.8, 1.7, 0.3), delta=0.9)
    assert no.predicted == PREDICT_NO
    # effective tightness 75/361 sits 0.0019 from the critical 0.20966
    critical = ae_count(RbParams(2, 40, 0.8, 1.7, 75 / 361), delta=0.9)
    assert critical.predicted == PREDICT_CRITICAL


def test_ae_count_infinite_divisor_predicts_against_satisfiability():
    params = RbParams(2, 13, 0.8, 1.7, 0.3)
    assert ae_count(params, delta=0.9).predicted == PREDICT_NO
    est = ae_count(params, delta=0.9, divisor=math.inf)
    assert est.divisor == math.inf
    # p_eff = 19/64 lies below 1 - exp(-0.8/1.7) = 0.375
    assert est.predicted == PREDICT_YES


def test_ae_count_band_is_configurable():
    params = RbParams(2, 13, 0.8, 1.7, 0.19)
    wide = ae_count(params, delta=0.9, critical_band=0.2)
    assert wide.predicted == PREDICT_CRITICAL
    narrow = ae_count(params, delta=0.9, critical_band=0.0001)
    assert narrow.predicted in (PREDICT_YES, PREDICT_NO)


@pytest.mark.parametrize("band", [-0.1, math.nan])
def test_ae_count_rejects_a_negative_or_nan_band(band):
    with pytest.raises(ValueError, match="critical_band must be >= 0"):
        ae_count(RbParams(2, 13, 0.8, 1.7, 0.19), delta=0.9, critical_band=band)


def test_ae_count_interval_shape():
    est = ae_count(RbParams(2, 13, 0.8, 1.7, 0.1), delta=0.5)
    assert est.interval_low == pytest.approx(0.5 * est.expected)
    assert est.interval_high == pytest.approx(1.5 * est.expected)
    assert est.interval_low <= est.expected <= est.interval_high
    assert math.isclose(est.log_interval_low, est.log_expected + math.log(0.5),
                        rel_tol=1e-12)


def test_ae_count_interval_in_log_space_when_linear_overflows():
    est = ae_count(RbParams(2, 5000, 0.8, 1.7, 0.1), delta=0.5)
    assert est.expected == math.inf and est.interval_high == math.inf
    assert est.log_interval_low < est.log_expected < est.log_interval_high


def test_ae_count_delta_one_degenerates():
    est = ae_count(RbParams(2, 13, 0.8, 1.7, 0.1), delta=1.0)
    assert est.interval_low == 0.0
    assert est.log_interval_low == -math.inf


def test_ae_count_rejects_bad_delta():
    for delta in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            ae_count(RbParams(2, 13, 0.8, 1.7, 0.1), delta=delta)


# === assignment pairs ===


def test_pair_probabilities_full_agreement_is_exact():
    for p_eff in (0.0, 0.25, 9 / 16, 0.875):
        pp = pair_probabilities(6, 6, 2, 4, p_eff)
        assert pp.joint_per_constraint == 1.0 - p_eff
        assert pp.conditional_per_constraint == 1.0


def test_pair_probabilities_below_arity_has_no_agreement_term():
    # S < k means the scope can never land inside the agreement set
    dk = 3 ** 2
    q = ((1 - 1 / 9) * dk - 1) / (dk - 1)
    pp = pair_probabilities(1, 4, 2, 3, 1 / 9)
    assert pp.conditional_per_constraint == pytest.approx(q)
    assert pp.joint_per_constraint == pytest.approx((1 - 1 / 9) * q)


def test_pair_probabilities_monte_carlo():
    # count, over ~3*10^4 random constraints, how often a fixed pair of
    # assignments at similarity 3 of 6 both survive
    n, k, d, t = 6, 2, 6, 9
    m_target = 30_000
    params = RbParams(k, n, 1.0, m_target / (n * math.log(n)), t / d ** k, seed=21)
    inst = generate(params)
    a = (0,) * 6
    b = (0, 0, 0, 1, 1, 1)
    m = len(inst.constraints)
    both = sum(1 for c in inst.constraints if allows(c, a) and allows(c, b))
    a_only = sum(1 for c in inst.constraints if allows(c, a))
    pp = pair_probabilities(3, n, k, d, t / d ** k)
    se_joint = math.sqrt(pp.joint_per_constraint * (1 - pp.joint_per_constraint) / m)
    assert abs(both / m - pp.joint_per_constraint) <= 3 * se_joint
    cond_emp = both / a_only
    se_cond = math.sqrt(pp.conditional_per_constraint
                        * (1 - pp.conditional_per_constraint) / a_only)
    assert abs(cond_emp - pp.conditional_per_constraint) <= 3 * se_cond


def test_pair_probabilities_validation():
    with pytest.raises(ValueError):
        pair_probabilities(7, 6, 2, 4, 0.2)
    with pytest.raises(ValueError):
        pair_probabilities(3, 6, 1, 4, 0.2)


# === conditioned expectation and the second-moment ratio ===


def test_conditional_expected_count_no_constraints_is_whole_space():
    assert conditional_expected_count(5, 2, 3, 0, 0.2) == 5 * math.log(3)
    assert conditional_expected_count(5, 2, 3, 4, 0.0) == 5 * math.log(3)


def test_conditional_expected_count_monte_carlo():
    # average exact count among instances that a fixed assignment satisfies
    n, k, d, m, t = 4, 2, 3, 3, 1
    p_eff = t / d ** k
    fixed = (0,) * n
    params_r = m / (n * math.log(n))
    counts = []
    for seed in range(6000):
        inst = generate(RbParams(k, n, math.log(d) / math.log(n), params_r,
                                 p_eff, seed=seed))
        if satisfies(inst, fixed):
            counts.append(count_brute(inst).count)
    mean = sum(counts) / len(counts)
    se = (sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)) ** 0.5
    se /= len(counts) ** 0.5
    predicted = math.exp(conditional_expected_count(n, k, d, m, p_eff))
    assert abs(predicted - mean) <= 3 * se, (predicted, mean, se)


def test_conditioned_mean_dominates_plain_mean():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 30)
        k = rng.randint(2, min(4, n))
        d = rng.randint(2, 12)
        m = rng.randint(0, 200)
        p_eff = rng.uniform(0.0, 1.0 - 1.0 / d ** k)
        log_cond = conditional_expected_count(n, k, d, m, p_eff)
        log_e = expected_count(n, d, m, p_eff).log_expected
        assert log_cond >= log_e - 1e-9


def test_second_moment_ratio_bounds_and_exact_one():
    assert second_moment_ratio(8, 2, 4, 0, 0.3) == 1.0
    assert second_moment_ratio(8, 2, 4, 12, 0.0) == 1.0
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 30)
        k = rng.randint(2, min(4, n))
        d = rng.randint(2, 12)
        m = rng.randint(1, 150)
        p_eff = rng.uniform(1e-6, 1.0 - 1.0 / d ** k)
        ratio = second_moment_ratio(n, k, d, m, p_eff)
        assert 0.0 < ratio <= 1.0 + 1e-9


# === similarity-weight diagnostic ===


def test_h_zero_at_origin():
    rng = random.Random(31)
    for _ in range(1000):
        n = rng.randint(2, 500)
        k = rng.randint(2, 6)
        alpha = rng.uniform(0.05, 2.5)
        r = rng.uniform(0.05, 4.0)
        p = rng.uniform(1e-6, 1 - 1e-6)
        assert h_eval(0.0, n, k, alpha, r, p) == 0.0


def test_h_at_one_flips_sign_at_satisfiability_threshold():
    rng = random.Random(37)
    for _ in range(300):
        alpha = rng.uniform(0.3, 2.0)
        r = rng.uniform(0.3, 3.0)
        p_star = -math.expm1(-alpha / r)
        below = h_eval(1.0, 20, 2, alpha, r, p_star * (1 - 1e-7))
        above = h_eval(1.0, 20, 2, alpha, r, min(1 - 1e-12, p_star * (1 + 1e-7)))
        assert below < 0 < above, (alpha, r)


def test_h_maximised_at_zero_in_the_estimable_region():
    # conditions: p below the satisfiability threshold, k * exp(-alpha/r) >= 1
    rng = random.Random(41)
    grid = [i / 1000 for i in range(1001)]
    for _ in range(40):
        k = rng.choice([2, 3, 4])
        alpha = rng.uniform(1.0 / k + 0.05, 2.0)
        r_min = alpha / math.log(k) if k > 2 else alpha / math.log(2)
        r = rng.uniform(r_min, 3 * r_min)
        if k * math.exp(-alpha / r) < 1.0:
            continue
        p_star = -math.expm1(-alpha / r)
        p = rng.uniform(0.01, 0.99) * p_star
        values = [h_eval(s, 25, k, alpha, r, p) for s in grid]
        best = max(range(len(grid)), key=lambda i: values[i])
        assert best == 0, (k, alpha, r, p, grid[best])


def test_h_validation():
    with pytest.raises(ValueError):
        h_eval(1.5, 10, 2, 0.8, 1.7, 0.2)
    with pytest.raises(ValueError):
        h_eval(0.5, 10, 2, 0.8, 1.7, 0.0)
