"""Closed-form analysis of solution counts for Model RB instances.

Everything works in terms of the *effective* tightness p_eff = t_nogoods/d^k
realised after rounding (``derive_sizes``), so the formulas line up with what
the generator actually builds.  Counts are handled in natural-log space
wherever they can overflow a float.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exact_count import check_decision_divisor
from .rb_model import RbParams, derive_sizes

PREDICT_YES = "YES"
PREDICT_NO = "NO"
PREDICT_CRITICAL = "CRITICAL"

CRITICAL_BAND = 0.005


def _divisor_factor(divisor: float) -> float:
    """1 - 1/divisor for the threshold d^(n/divisor); the formulas also take an
    infinite divisor (the satisfiability threshold), which decisions reject."""
    if divisor == math.inf:
        return 1.0
    check_decision_divisor(divisor)
    return 1.0 - 1.0 / divisor


def critical_tightness(alpha: float, r: float, divisor: float = 2) -> float:
    """Tightness where instances stop having at least d^(n/divisor) solutions.

    Equals 1 - exp(-(alpha/r) * (1 - 1/divisor)); an infinite divisor gives
    the satisfiability threshold 1 - exp(-alpha/r).
    """
    if not alpha > 0 or not r > 0:
        raise ValueError("alpha and r must be positive")
    return -math.expm1(-(alpha / r) * _divisor_factor(divisor))


def critical_density(alpha: float, p: float, divisor: float = 2) -> float:
    """Constraint density where the count drops below d^(n/divisor).

    Equals -alpha * (1 - 1/divisor) / ln(1 - p); inverse of
    critical_tightness in p <-> r.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return -alpha * _divisor_factor(divisor) / math.log1p(-p)


class ExpectedCount(NamedTuple):
    log_expected: float
    expected: float  # math.inf when exp(log_expected) overflows


def expected_count(n: int, d: int, m: int, p_eff: float) -> ExpectedCount:
    """Mean solution count d^n * (1 - p_eff)^m over the instance distribution."""
    if n < 1 or d < 2 or m < 0:
        raise ValueError("need n >= 1, d >= 2, m >= 0")
    if not 0.0 <= p_eff < 1.0:
        raise ValueError("p_eff must lie in [0, 1)")
    log_e = n * math.log(d) + m * math.log1p(-p_eff)
    try:
        linear = math.exp(log_e)
    except OverflowError:
        linear = math.inf
    return ExpectedCount(log_e, linear)


# ---------------------------------------------------------------------------
# applicability of the threshold formulas
# ---------------------------------------------------------------------------


class ApplicabilityReport(NamedTuple):
    """Which closed-form threshold results apply at a parameter point.

    ``tightness_threshold_ok`` covers the critical-tightness formula,
    ``density_threshold_ok`` the critical-density formula, and
    ``interval_estimate_ok`` the moment-based count interval (valid under
    either side condition).
    """

    alpha_above_inverse_arity: bool   # alpha > 1/k
    domain_growth_ok: bool            # k * exp(-alpha/r) >= 1
    arity_vs_tightness_ok: bool       # k >= 1/(1 - p)
    tightness_threshold_ok: bool
    density_threshold_ok: bool
    interval_estimate_ok: bool


def theorem_applicability(params: RbParams) -> ApplicabilityReport:
    """Evaluate the side conditions the asymptotic threshold results need."""
    alpha_ok = params.alpha > 1.0 / params.k
    growth_ok = params.k * math.exp(-params.alpha / params.r) >= 1.0
    arity_ok = params.k >= 1.0 / (1.0 - params.p)
    return ApplicabilityReport(
        alpha_above_inverse_arity=alpha_ok,
        domain_growth_ok=growth_ok,
        arity_vs_tightness_ok=arity_ok,
        tightness_threshold_ok=alpha_ok and growth_ok,
        density_threshold_ok=alpha_ok and arity_ok,
        interval_estimate_ok=alpha_ok and (growth_ok or arity_ok),
    )


# ---------------------------------------------------------------------------
# the moment-based estimate
# ---------------------------------------------------------------------------


class Estimate(NamedTuple):
    """Point estimate and relative-width interval for a solution count.

    The interval ((1-delta)*E, (1+delta)*E) is carried both linearly and in
    log space so it stays meaningful when E overflows a float.  ``predicted``
    is YES/NO according to the side of the critical tightness the parameter
    point sits on, or CRITICAL within CRITICAL_BAND of it, where the interval
    guarantee breaks down.
    """

    log_expected: float
    expected: float
    delta: float
    interval_low: float
    interval_high: float
    log_interval_low: float
    log_interval_high: float
    predicted: str


def ae_count(params: RbParams, delta: float, divisor: float = 2) -> Estimate:
    """Estimate the solution count of a random instance at ``params``.

    Returns the distribution mean E at the effective tightness together with
    the interval ((1-delta)*E, (1+delta)*E).  Away from the critical
    tightness the exact count concentrates in this interval as n grows; the
    CRITICAL prediction flags the band |p_eff - p_cr| <= CRITICAL_BAND where
    no such guarantee holds.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    sizes = derive_sizes(params)
    log_e, linear = expected_count(params.n, sizes.d, sizes.m, sizes.p_eff)
    p_cr = critical_tightness(params.alpha, params.r, divisor)
    if abs(sizes.p_eff - p_cr) <= CRITICAL_BAND:
        predicted = PREDICT_CRITICAL
    elif sizes.p_eff < p_cr:
        predicted = PREDICT_YES
    else:
        predicted = PREDICT_NO
    low = (1.0 - delta) * linear if linear < math.inf else math.inf
    high = (1.0 + delta) * linear
    log_low = log_e + (math.log1p(-delta) if delta < 1.0 else -math.inf)
    return Estimate(
        log_expected=log_e,
        expected=linear,
        delta=delta,
        interval_low=low,
        interval_high=high,
        log_interval_low=log_low,
        log_interval_high=log_e + math.log1p(delta),
        predicted=predicted,
    )


# ---------------------------------------------------------------------------
# assignment pairs
# ---------------------------------------------------------------------------


class PairProbabilities(NamedTuple):
    joint_per_constraint: float
    conditional_per_constraint: float


def pair_probabilities(similarity_number: int, n: int, k: int, d: int,
                       p_eff: float) -> PairProbabilities:
    """Per-constraint satisfaction probabilities for an assignment pair.

    For a random constraint, either its scope lands inside the agreement set
    of the pair (probability C(S, k)/C(n, k), both projections equal, one
    allowed-tuple event) or the projections differ and two distinct tuples
    must both be allowed.  Exact at finite d: with A = (1 - p_eff) * d^k
    allowed tuples, the second case has both-allowed probability
    (1 - p_eff) * q with q = (A - 1)/(d^k - 1).
    """
    if not 0 <= similarity_number <= n:
        raise ValueError("similarity_number must lie in [0, n]")
    if k < 2 or k > n or d < 2:
        raise ValueError("need 2 <= k <= n and d >= 2")
    if not 0.0 <= p_eff < 1.0:
        raise ValueError("p_eff must lie in [0, 1)")
    dk = d ** k
    w = math.comb(similarity_number, k) / math.comb(n, k)
    q = ((1.0 - p_eff) * dk - 1.0) / (dk - 1.0)
    joint = w * (1.0 - p_eff) + (1.0 - w) * (1.0 - p_eff) * q
    conditional = w + (1.0 - w) * q
    return PairProbabilities(joint, conditional)


def _log_sum_exp(values: list[float]) -> float:
    top = max(values)
    return top + math.log(sum(math.exp(v - top) for v in values))


def conditional_expected_count(n: int, k: int, d: int, m: int, p_eff: float) -> float:
    """log of the mean count among instances satisfied by a fixed assignment.

    Sums, over the similarity number S to the fixed assignment, the C(n, S)
    * (d-1)^(n-S) assignments at that similarity weighted by the m-fold
    conditional pair probability.  Computed with log-sum-exp; returns the
    natural log.
    """
    if n < 1 or d < 2 or m < 0 or k < 2 or k > n:
        raise ValueError("need n >= 1, d >= 2, m >= 0, 2 <= k <= n")
    if not 0.0 <= p_eff < 1.0:
        raise ValueError("p_eff must lie in [0, 1)")
    if m == 0 or p_eff == 0.0:
        # every term has conditional probability 1; the sum telescopes to d^n
        return n * math.log(d)
    terms = []
    log_d1 = math.log(d - 1)
    for s_num in range(n + 1):
        cond = pair_probabilities(s_num, n, k, d, p_eff).conditional_per_constraint
        if cond <= 0.0:
            continue
        terms.append(math.log(math.comb(n, s_num))
                     + (n - s_num) * log_d1
                     + m * math.log(cond))
    return _log_sum_exp(terms)


def second_moment_ratio(n: int, k: int, d: int, m: int, p_eff: float) -> float:
    """Mean count over conditioned mean count, in (0, 1]; near 1 means the
    count concentrates around its mean."""
    log_e = expected_count(n, d, m, p_eff).log_expected
    log_cond = conditional_expected_count(n, k, d, m, p_eff)
    return math.exp(log_e - log_cond)


# ---------------------------------------------------------------------------
# large-deviation weight of pair similarity
# ---------------------------------------------------------------------------


def h_eval(s: float, n: int, k: int, alpha: float, r: float, p: float) -> float:
    """Log-scale weight of assignment pairs at similarity degree s.

    h(s) = [r * ln(1 + p*s^k/(1-p)) - alpha*s] * n * ln(n).  Negative for all
    s in (0, 1] exactly when pair mass concentrates on near-independent pairs,
    which is what makes the mean-count estimate trustworthy.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    if n < 2 or k < 2:
        raise ValueError("need n >= 2 and k >= 2")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if not alpha > 0 or not r > 0:
        raise ValueError("alpha and r must be positive")
    inner = r * math.log1p(p * s ** k / (1.0 - p)) - alpha * s
    return inner * n * math.log(n)
