"""Generator, derived sizes, and the instance text format."""

from __future__ import annotations

import io
import itertools
import math
import pickle
import random
import re
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rbcount import rb_model
from rbcount.rb_model import (DEFAULT_BRUTE_CAP, LANE_CAP, MASK64, CapExceeded, Constraint,
                              DerivedSizes, Instance, InstanceFormatError, RbParams,
                              _lane_words, _take, derive_sizes, generate, mix64,
                              read_instance, round_half_up, write_instance)
from rbcount.theory import theorem_applicability

from oracles import allows, int_digit_limit, params_for


# === derived sizes ===


@pytest.mark.parametrize("n,alpha,d", [
    (7, 0.8, 5), (10, 0.8, 6), (13, 0.8, 8),
    (9, 0.85, 6), (12, 0.85, 8), (15, 0.85, 10),
])
def test_domain_size_matches_published_runs(n, alpha, d):
    assert derive_sizes(RbParams(2, n, alpha, 1.5, 0.2)).d == d


def test_derived_sizes_worked_example():
    sizes = derive_sizes(RbParams(2, 4, 1.0, 1.0, 0.25))
    assert sizes == DerivedSizes(d=4, m=6, t_nogoods=4, p_eff=0.25)  # m = round(4*ln 4) = 6


def test_half_up_rounding():
    assert round_half_up(22.5) == 23
    assert round_half_up(6.47) == 6
    assert round_half_up(2.5) == 3
    assert round_half_up(2.49) == 2


def test_clamps():
    # tiny alpha -> d clamps to 2; tiny r -> m clamps to 1; tiny p -> t clamps to 1
    sizes = derive_sizes(RbParams(2, 3, 0.01, 0.001, 1e-9))
    assert sizes == DerivedSizes(d=2, m=1, t_nogoods=1, p_eff=0.25)
    # p near 1 -> t clamps to d^k - 1
    sizes = derive_sizes(RbParams(2, 3, 0.01, 0.001, 0.999999))
    assert sizes.t_nogoods == 3


def test_params_validation():
    with pytest.raises(ValueError):
        RbParams(1, 5, 0.8, 1.5, 0.2)
    with pytest.raises(ValueError):
        RbParams(6, 5, 0.8, 1.5, 0.2)  # k > n
    with pytest.raises(ValueError):
        RbParams(2, 1, 0.8, 1.5, 0.2)
    with pytest.raises(ValueError):
        RbParams(2, 5, 0.8, 1.5, 0.0)
    with pytest.raises(ValueError):
        RbParams(2, 5, 0.8, 1.5, 1.0)
    with pytest.raises(ValueError):
        RbParams(2, 5, -0.8, 1.5, 0.2)


@pytest.mark.parametrize("k,n,alpha,r,message", [
    (2, 5, math.inf, 1.5, "alpha must be finite and > 0, got inf"),
    (2, 5, 0.8, math.inf, "density r must be finite and > 0, got inf"),
    (2, 5, 1e6, 1.5, "overflow at k=2 n=5 alpha=1000000.0"),  # n^alpha
    (2, 5, 0.8, 1e308, "overflow at k=2 n=5"),                # r*n*ln n
    (200, 200, 2.0, 0.1, "overflow at k=200 n=200"),          # p*d^k
    (10 ** 8, 10 ** 8, 0.3, 0.1, "overflow at k=100000000"),  # d^k not built
])
def test_params_reject_non_finite_and_overflowing_sizes(k, n, alpha, r, message):
    with pytest.raises(ValueError, match=message):
        RbParams(k, n, alpha, r, 0.2)


def test_params_accept_huge_sizes_in_the_float_range():
    sizes = derive_sizes(RbParams(2, 5, 200.0, 1.0, 0.2))  # d^k near 4e279
    assert sizes.d == round_half_up(5 ** 200.0) and sizes.t_nogoods > 10 ** 278


def test_unpickling_checks_the_fields_and_replace_does_not():
    # A sweep seeds its instances with _replace, and a --jobs worker unpickles them.
    point = RbParams(2, 7, 0.8, 1.7, 0.21, seed=12345)
    for seed in (0, MASK64):
        copy = point._replace(seed=seed)
        want = RbParams(*point[:-1], seed=seed)
        assert copy == want and hash(copy) == hash(want)
        loaded = pickle.loads(pickle.dumps(copy))
        assert loaded == want and type(loaded) is RbParams
    unchecked = point._replace(seed=-1)
    assert unchecked.seed == -1
    with pytest.raises(ValueError, match="^seed must fit in 64 bits$"):
        pickle.loads(pickle.dumps(unchecked))


def test_effective_tightness_reflects_rounding():
    params = RbParams(2, 7, 0.8, 1.5, 0.3)  # t = round(7.5) = 8 of 25 tuples
    assert derive_sizes(params).p_eff == 8 / 25


# === the generator ===


# Lane inputs that stress the lane boundaries: all zeros next to all ones,
# alternating bits, and values whose golden-ratio add carries out of 64 bits.
EDGE_STATES = [0, MASK64, 0xAAAAAAAAAAAAAAAA, 0x5555555555555555, MASK64, 0,
               (1 << 64) - 0x9E3779B97F4A7C15, 1 << 63, 1, MASK64 - 1]


def test_lane_words_match_mix64_lane_by_lane():
    # count=1 from word 0: each lane holds one edge state as it is
    assert _lane_words(EDGE_STATES, 0, 1) == [mix64(s) for s in EDGE_STATES]
    assert (_lane_words(EDGE_STATES, 5, 7)
            == [mix64(s ^ i) for s in EDGE_STATES for i in range(5, 12)])


def test_lane_words_fill_the_cap_and_give_stream_states():
    states = [mix64(c) for c in range(8)]
    count = LANE_CAP // len(states)
    assert _lane_words(states, 0, count) == [mix64(s ^ i) for s in states for i in range(count)]
    assert _lane_words([mix64(99)], 40, 3) == [mix64(99, c) for c in (40, 41, 42)]
    assert _lane_words([], 0, 5) == _lane_words(states, 0, 0) == []


def draw_distinct(words, bound, count):
    """count distinct draws below bound: each the top bits of as many whole
    words as bound needs, first word highest, rejected when it is not below
    bound or repeats."""
    bits = (bound - 1).bit_length()
    width = -(-bits // 64)
    seen = set()
    while len(seen) < count:
        u = 0
        for _ in range(width):
            u = (u << 64) | next(words)
        u >>= width * 64 - bits
        if u < bound:
            seen.add(u)
    return seen


def reference_generate(params):
    """generate from its definition: word i of constraint c's stream is
    mix64(seed, c, i), and a draw below bound is draw_distinct's."""
    sizes = derive_sizes(params)
    k, d = params.k, sizes.d
    constraints = []
    for c in range(sizes.m):
        words = (mix64(params.seed, c, i) for i in itertools.count())
        scope = tuple(sorted(draw_distinct(words, params.n, k)))
        drawn = draw_distinct(words, d ** k, sizes.t_nogoods)
        constraints.append(Constraint(scope, frozenset(
            tuple(index // d ** (k - 1 - i) % d for i in range(k)) for index in drawn)))
    return Instance(params.n, d, tuple(constraints), provenance=params)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 5), extra=st.integers(0, 8), alpha=st.floats(0.4, 1.3),
       r=st.floats(0.05, 2.0), t=st.integers(1, 400), seed=st.integers(0, 2 ** 64 - 1))
def test_generate_matches_the_word_by_word_reference(k, extra, alpha, r, t, seed):
    n = k + extra
    d = max(2, round_half_up(n ** alpha))
    params = RbParams(k, n, alpha, r, min(t, d ** k - 1) / d ** k, seed)
    assert generate(params) == reference_generate(params)


@pytest.mark.parametrize("params", [
    RbParams(2, 7, 0.8, 1.7, 0.45, seed=3),         # d=5 m=23 t=11
    RbParams(3, 15, 0.85, 1.4, 0.26, seed=2 ** 64 - 1),  # d=10 m=57 t=260
    RbParams(5, 6, 1.2, 0.5, 0.002, seed=7),       # d=9 m=5 t=118
    RbParams(12, 12, 1.9, 0.5, 1e-30, seed=1),     # d^k > 2^64: nogoods word by word
    RbParams(2, 2 ** 65, 0.01, 1e-25, 0.5, seed=5),  # n > 2^64: scope word by word
    RbParams(65, 2 ** 65, 0.01, 1e-25, 1e-19, seed=9),  # n, d^k > 2^64: no lane words
], ids=["n7", "export-n15", "k5", "wide-nogoods", "wide-scope", "wide-both"])
@pytest.mark.parametrize("lane_cap,expected", [
    (LANE_CAP, None),  # as generate sizes them
    (LANE_CAP, 0.5),   # a batch of one word: every constraint is topped up
    (16, None),        # many passes, and batches cut to the cap
    (1, 3.0),          # one lane a pass
], ids=["default", "short-batch", "small-cap", "one-lane"])
def test_generate_matches_the_reference_for_any_batch_and_cap(
        params, lane_cap, expected, monkeypatch):
    passes = []
    real_lane_words = rb_model._lane_words

    def recording_lane_words(states, first, count):
        passes.append(len(states) * count)
        return real_lane_words(states, first, count)

    monkeypatch.setattr(rb_model, "_lane_words", recording_lane_words)
    monkeypatch.setattr(rb_model, "LANE_CAP", lane_cap)
    if expected is not None:
        monkeypatch.setattr(rb_model, "_expected_draws", lambda bound, count: expected)
    assert generate(params) == reference_generate(params)
    assert max(passes) <= lane_cap
    several = lane_cap < LANE_CAP or (expected is None and params.n == 15)
    if several and derive_sizes(params).m > 1:
        assert len(passes) > 2  # m x batch is over the cap: several groups


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, 5), extra=st.integers(0, 8), alpha=st.floats(0.4, 1.3),
       r=st.floats(0.05, 1.0), t=st.integers(1, 400), seed=st.integers(0, 2 ** 64 - 1),
       share=st.floats(0.0, 1.0))
def test_generate_matches_the_reference_wherever_the_batch_ends(
        k, extra, alpha, r, t, seed, share):
    # A batch from one word up to the real expected draws, so a constraint's
    # lane words run out mid-scope, between scope and nogoods or mid-nogoods.
    n = k + extra
    d = max(2, round_half_up(n ** alpha))
    params = RbParams(k, n, alpha, r, min(t, d ** k - 1) / d ** k, seed)
    sizes = derive_sizes(params)
    real = (rb_model._expected_draws(n, k)
            + rb_model._expected_draws(d ** k, sizes.t_nogoods))
    expected = 0.5 + share * (real - 0.5)
    # generate sums _expected_draws over its two bounds: the batch is ceil(expected)
    with mock.patch.object(rb_model, "_expected_draws", lambda bound, count: expected / 2):
        assert generate(params) == reference_generate(params)


@pytest.mark.parametrize("bound", [
    2 ** 64 - 1, 2 ** 64,  # 64 bits: one word, shift 0
    2 ** 64 + 1,           # 65 bits: two words, shift 63
    2 ** 128,              # 128 bits: two words, shift 0
    2 ** 128 + 1,          # 129 bits: three words, shift 63
])
def test_take_matches_the_reference_where_the_draw_width_changes(bound):
    stream = [mix64(2024, i) for i in range(200)]
    words, reference = iter(stream), iter(stream)
    assert _take(words, bound, 6) == draw_distinct(reference, bound, 6)
    assert next(words) == next(reference)  # both stop after the last word used


@pytest.mark.parametrize("params,sizes", [
    (RbParams(2, 40, 3.0, 1.5, 0.5), "452608000000"),  # d=64000 m=221 t=2048000000
    (RbParams(40, 40, 3.0, 1.5, 0.5), "at least 2^645"),  # m=221 t=at least 2^637
    (RbParams(2, 10 ** 70, 0.01, 1.0, 0.5), "at least 2^243"),  # m=at least 2^239 t=13
], ids=["d64000", "huge-t", "huge-m"])
def test_generate_refuses_more_nogoods_than_the_cap_before_any_draw(
        params, sizes, monkeypatch):
    def no_draws(*args):
        raise AssertionError("generate drew words")

    monkeypatch.setattr(rb_model, "_lane_words", no_draws)
    with pytest.raises(CapExceeded) as info:
        generate(params)
    assert str(info.value) == f"{sizes} nogoods exceed the cap of {DEFAULT_BRUTE_CAP}"
    assert len(str(info.value)) < 200


def test_generate_runs_up_to_the_nogood_cap(monkeypatch):
    params = RbParams(2, 7, 0.8, 1.7, 0.45, seed=3)  # d=5 m=23 t=11
    monkeypatch.setattr(rb_model, "DEFAULT_BRUTE_CAP", 23 * 11)
    assert generate(params) == reference_generate(params)
    monkeypatch.setattr(rb_model, "DEFAULT_BRUTE_CAP", 23 * 11 - 1)
    with pytest.raises(CapExceeded, match="^253 nogoods exceed the cap of 252$"):
        generate(params)


def test_generate_is_deterministic():
    params = RbParams(2, 8, 0.9, 1.3, 0.3, seed=987654321)
    assert generate(params) == generate(params)


def test_generate_structure():
    params = params_for(3, 6, 4, 12, 10, seed=11)
    inst = generate(params)
    assert inst.n == 6 and inst.d == 4
    assert len(inst.constraints) == 12
    for c in inst.constraints:
        assert len(c.scope) == 3
        assert list(c.scope) == sorted(set(c.scope))
        assert all(0 <= v < 6 for v in c.scope)
        assert len(c.nogoods) == 10  # distinct by construction
        assert all(len(ng) == 3 and all(0 <= x < 4 for x in ng)
                   for ng in c.nogoods)
    inst.validate()


def test_different_seeds_differ():
    a = generate(RbParams(2, 8, 0.9, 1.3, 0.3, seed=1))
    b = generate(RbParams(2, 8, 0.9, 1.3, 0.3, seed=2))
    assert a != b


def test_scope_frequencies_uniform():
    # 10 possible scopes for k=2, n=5; ~10^4 constraints via a large density
    n = 5
    m_target = 10_000
    r = m_target / (n * math.log(n))
    params = RbParams(2, n, 1.0, r, 0.04, seed=3)
    inst = generate(params)
    m = len(inst.constraints)
    assert m >= 10_000
    freq: dict[tuple[int, ...], int] = {}
    for c in inst.constraints:
        freq[c.scope] = freq.get(c.scope, 0) + 1
    assert len(freq) == 10
    for scope, hits in freq.items():
        assert abs(hits / m - 0.1) <= 0.01, f"scope {scope}: {hits / m}"


def test_single_assignment_satisfaction_rate():
    # a fixed assignment satisfies each constraint with prob 1 - t/d^k
    n, k = 6, 2
    m_target = 10_000
    params = params_for(k, n, 6, m_target, 9, seed=5)  # p_eff = 9/36 = 0.25
    inst = generate(params)
    assignment = [0] * n
    hits = sum(1 for c in inst.constraints if allows(c, assignment))
    rate = hits / len(inst.constraints)
    expected = 1 - 0.25
    se = math.sqrt(expected * (1 - expected) / len(inst.constraints))
    assert abs(rate - expected) <= 3 * se, f"rate {rate} vs {expected}"


def test_nogood_tuples_uniform():
    # each of the d^k tuples should appear in ~t/d^k of the constraints
    params = params_for(2, 5, 3, 8000, 3, seed=13)
    inst = generate(params)
    m = len(inst.constraints)
    freq: dict[tuple[int, ...], int] = {}
    for c in inst.constraints:
        for ng in c.nogoods:
            freq[ng] = freq.get(ng, 0) + 1
    expected = 3 / 9
    se = math.sqrt(expected * (1 - expected) / m)
    for tup, hits in freq.items():
        assert abs(hits / m - expected) <= 4 * se, f"tuple {tup}: {hits / m}"


# === applicability ===


def test_applicability_published_parameters():
    report = theorem_applicability(RbParams(2, 20, 0.8, 1.7, 0.2))
    assert report.alpha_above_inverse_arity
    assert report.domain_growth_ok          # 2 * exp(-0.8/1.7) = 1.249 >= 1
    assert report.arity_vs_tightness_ok     # 2 >= 1/0.8
    assert report.tightness_threshold_ok
    assert report.density_threshold_ok
    assert report.interval_estimate_ok


def test_applicability_violations():
    report = theorem_applicability(RbParams(2, 20, 0.4, 1.7, 0.2))
    assert not report.alpha_above_inverse_arity
    assert not report.tightness_threshold_ok
    report = theorem_applicability(RbParams(2, 20, 0.8, 1.7, 0.6))
    assert not report.arity_vs_tightness_ok  # 2 < 1/(1-0.6) = 2.5
    assert not report.density_threshold_ok
    # very low density: k * exp(-alpha/r) < 1
    report = theorem_applicability(RbParams(2, 20, 0.8, 0.5, 0.2))
    assert not report.domain_growth_ok


# === text format ===


def test_round_trip():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(2, 8)
        k = rng.randint(2, min(3, n))
        d = rng.randint(2, 5)
        t = rng.randint(1, d ** k - 1)
        params = params_for(k, n, d, rng.randint(1, 12), t, seed=rng.getrandbits(32))
        inst = generate(params)
        buf = io.StringIO()
        write_instance(inst, buf)
        back = read_instance(io.StringIO(buf.getvalue()))
        assert back.n == inst.n and back.d == inst.d
        assert back.constraints == inst.constraints


def test_parse_known_text():
    text = """\
# a comment
rbcsp 1
n 2 d 2 k 2 m 1

c 0 1
# a comment inside the body
g 0 0
"""
    inst = read_instance(io.StringIO(text))
    assert inst.n == 2 and inst.d == 2
    assert inst.constraints == (Constraint((0, 1), frozenset({(0, 0)})),)


def test_parse_allows_empty_nogood_set():
    text = "rbcsp 1\nn 3 d 2 k 2 m 1\nc 0 2\n"
    inst = read_instance(io.StringIO(text))
    assert inst.constraints[0].nogoods == frozenset()


# (text, what, the exact message): a test's id is "<text>-<what>"
MALFORMED = [
    ("", "empty", "empty input"),
    ("rbcsp 1\n", "no size line", "missing size line"),
    ("rbcsp 2\nn 2 d 2 k 2 m 0\n", "version", "line 1: unsupported format version"),
    ("nonsense 1\nn 2 d 2 k 2 m 0\n", "magic", "line 1: expected magic 'rbcsp'"),
    ("rbcsp 1\nn 2 d 2 k 2\n", "size line", "line 2: expected 'n <n> d <d> k <k> m <m>'"),
    ("rbcsp 1\nn 2 d 1 k 2 m 0\n", "domain", "need n >= 1 and d >= 2, got n=2 d=1"),
    ("rbcsp 1\nn 1 d 2 k 2 m 1\nc 0 1\n", "k > n",
     "constraint 0: scope (0, 1) is not strictly increasing in [0, 1)"),
    ("rbcsp 1\nn 2 d 2 k 2 m 2\nc 0 1\ng 0 0\n", "constraint count",
     "declared m=2 but found 1 constraints"),
    ("rbcsp 1\nn 2 d 2 k 2 m 1\nc 0 5\ng 0 0\n", "variable range",
     "constraint 0: scope (0, 5) is not strictly increasing in [0, 2)"),
    ("rbcsp 1\nn 2 d 2 k 2 m 1\nc 1 0\ng 0 0\n", "unsorted scope",
     "constraint 0: scope (1, 0) is not strictly increasing in [0, 2)"),
    ("rbcsp 1\nn 2 d 2 k 2 m 1\nc 0 0\ng 0 0\n", "repeated scope var",
     "constraint 0: scope (0, 0) is not strictly increasing in [0, 2)"),
    ("rbcsp 1\nn 2 d 2 k 2 m 1\nc 0 1\ng 0 7\n", "value range",
     "constraint 0: a nogood is not 2 values in [0, 2)"),
    ("rbcsp 1\nn 2 d 2 k 2 m 1\nc 0 1\ng 0\n", "nogood arity",
     "line 4: 'g' line needs 2 values"),
    ("rbcsp 1\nn 2 d 2 k 2 m 1\nc 0 1\ng 0 0\ng 0 0\n", "duplicate nogood",
     "line 5: duplicate nogood (0, 0)"),
    # the same nogood in other text: parsed, not taken from the line cache
    ("rbcsp 1\nn 2 d 2 k 2 m 1\nc 0 1\ng 0 0\ng  0\t0 \n", "duplicate nogood respaced",
     "line 5: duplicate nogood (0, 0)"),
    ("rbcsp 1\nn 2 d 2 k 2 m 1\nc 0 1\ng 0 1\ng 0 01\n", "duplicate nogood zero-padded",
     "line 5: duplicate nogood (0, 1)"),
    ("rbcsp 1\nn 2 d 2 k 2 m 1\ng 0 0\nc 0 1\n", "nogood before scope",
     "line 3: nogood before any scope line"),
    ("rbcsp 1\nn 2 d 2 k 2 m 1\nc 0 1\nx 0 0\n", "unknown tag",
     "line 4: unknown line tag 'x'"),
    ("rbcsp 1\nn 2 d 2 k 2 m 1\nc 0 one\n", "non-integer",
     "line 3: expected integer, got 'one'"),
    ("rbcsp 1\nn 0 d 2 k 2 m 0\n", "no variables", "need n >= 1 and d >= 2, got n=0 d=2"),
    # validate() refuses n below the arity, 2 when there are no constraints
    ("rbcsp 1\nn 1 d 3 k 2 m 0\n", "one variable", "arity k=2 exceeds variable count n=1"),
    ("rbcsp 1\nn 2 d 2 k 1 m 0\n", "arity below 2", "line 2: need k >= 2 and m >= 0"),
    # with no constraint, no scope shows that k cannot fit n
    ("rbcsp 1\nn 3 d 2 k 100000000000000000000 m 0\n", "k > n without constraints",
     "line 2: arity k=100000000000000000000 exceeds variable count n=3"),
    ("rbcsp 1\n# header\n\nn 3 d 2 k 4 m 0\n", "k > n after a comment",
     "line 4: arity k=4 exceeds variable count n=3"),
    ("rbcsp 1\nn 3 d 2 k 2 m 2\nc 0 1\ng 0 0\nc 1 2\ng 1 x\n",
     "non-integer in second block", "line 6: expected integer, got 'x'"),
    ("rbcsp 1\nn 3 d 2 k 2 m 2\nc 0 1\ng 1 0\nc 1 2\ng 1 0\ng 0 1\ng 1 0\n",
     "duplicate nogood in second block", "line 8: duplicate nogood (1, 0)"),
    ("rbcsp 1\nn 3 d 2 k 2 m 2\nc 0 1\ng 0 0\nc 1 2\ng 0 x\ng 0 x\ny 0 0\n",
     "first error wins", "line 6: expected integer, got 'x'"),
    ("rbcsp 1\nn 3 d 2 k 2 m 1\nc 0 1\ng 0 0\nz 0 one\n",
     "tag before integers", "line 5: unknown line tag 'z'"),
    ("rbcsp 1\nn 3 d 2 k 2 m 1\ng 0 one\n",
     "scope before integers", "line 3: nogood before any scope line"),
    ("rbcsp 1\nn 3 d 2 k 2 m 1\nc 0 1\ng 0 1 one\n",
     "integers before arity", "line 4: expected integer, got 'one'"),
    # an integer is an optional '-' then ASCII digits, not whatever int() takes
    ("rbcsp 1\nn 2 d 2 k 2 m 1\nc 0 1\ng 0 1_0\n", "underscore",
     "line 4: expected integer, got '1_0'"),
    ("rbcsp 1\nn 2 d 2 k 2 m 1\nc +0 1\n", "plus sign", "line 3: expected integer, got '+0'"),
    ("rbcsp 1\nn 2 d 2 k 2 m 1\nc 0 \u0661\n", "arabic-indic digit",
     "line 3: expected integer, got '\u0661'"),
    ("rbcsp 1\nn \uff13 d 2 k 2 m 0\n", "fullwidth digit in the header",
     "line 2: expected integer, got '\uff13'"),
    ("rbcsp 1\nn 2 d 2 k 2 m 1\nc --0 1\n", "two minus signs",
     "line 3: expected integer, got '--0'"),
]


@pytest.mark.parametrize("text,message", [
    pytest.param(text, message, id=f"{text}-{what}") for text, what, message in MALFORMED])
def test_parse_rejects_malformed(text, message):
    with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
        read_instance(io.StringIO(text))


def test_parse_reads_a_repeated_nogood_line_into_each_constraint():
    # the second and third blocks repeat the first block's line text exactly
    text = "rbcsp 1\nn 3 d 2 k 2 m 3\nc 0 1\ng 1 0\nc 1 2\ng 1 0\ng 0 1\nc 0 2\ng 0 1\n"
    inst = read_instance(io.StringIO(text))
    assert inst.constraints == (Constraint((0, 1), frozenset({(1, 0)})),
                                Constraint((1, 2), frozenset({(1, 0), (0, 1)})),
                                Constraint((0, 2), frozenset({(0, 1)})))


def test_parse_names_an_integer_with_too_many_digits():
    limit = int_digit_limit()
    text = f"rbcsp 1\nn 1{'0' * limit} d 2 k 2 m 0\n"
    with pytest.raises(InstanceFormatError) as err:
        read_instance(io.StringIO(text))
    message = str(err.value)
    assert message == (f"line 2: integer '1{'0' * 19}'... has too many digits "
                       f"({limit + 1})")
    assert len(message) < 200


def test_parse_reads_signed_and_zero_padded_integers():
    text = "rbcsp 1\nn 3 d 2 k 2 m 1\nc -0 02\ng 01 01\ng 0 -0\n"
    inst = read_instance(io.StringIO(text))
    assert inst.constraints == (Constraint((0, 2), frozenset({(1, 1), (0, 0)})),)


def test_write_is_deterministic():
    params = RbParams(2, 6, 1.0, 1.2, 0.3, seed=99)
    a, b = io.StringIO(), io.StringIO()
    write_instance(generate(params), a)
    write_instance(generate(params), b)
    assert a.getvalue() == b.getvalue()


def test_instance_validate_catches_bad_data():
    bad = Instance(2, 2, (Constraint((0, 3), frozenset({(0, 0)})),))
    with pytest.raises(InstanceFormatError):
        bad.validate()
    bad = Instance(2, 2, (Constraint((0, 1), frozenset({(0, 5)})),))
    with pytest.raises(InstanceFormatError):
        bad.validate()
    bad = Instance(2, 2, (Constraint((0,), frozenset({(0,)})),))
    with pytest.raises(InstanceFormatError, match=r"^arity must be >= 2, got 1$"):
        bad.validate()
    with pytest.raises(InstanceFormatError, match=r"^arity k=2 exceeds variable count n=1$"):
        Instance(1, 3, ()).validate()


def test_instance_validate_names_the_bad_constraint():
    good = Constraint((0, 1), frozenset({(0, 0), (1, 1)}))
    for bad_nogoods in ({(0, 1), (1, 2)}, {(0, 1), (1,)}, {(0, 1), (0, 0, 1)},
                        {(-1, 0)}):
        bad = Instance(3, 2, (good, Constraint((1, 2), frozenset(bad_nogoods)), good))
        with pytest.raises(InstanceFormatError,
                           match=r"^constraint 1: a nogood is not 2 values in \[0, 2\)$"):
            bad.validate()
    bad = Instance(3, 2, (good, Constraint((1, 3), frozenset({(0, 0)}))))
    with pytest.raises(InstanceFormatError,
                       match=r"^constraint 1: scope \(1, 3\) is not strictly increasing"):
        bad.validate()


def test_write_rejects_a_wrong_length_nogood():
    # the message is validate()'s; the writer stops before the bad constraint
    good = Constraint((0, 1), frozenset({(0, 0), (1, 1)}))
    for bad_nogoods in ({(0, 0, 1), (1,)}, {(0, 1), (1,)}, {(0, 1), (0, 0, 1)}):
        bad = Instance(3, 2, (good, Constraint((1, 2), frozenset(bad_nogoods))))
        sink = io.StringIO()
        with pytest.raises(InstanceFormatError,
                           match=r"^constraint 1: a nogood is not 2 values in \[0, 2\)$"):
            write_instance(bad, sink)
        assert sink.getvalue().endswith("c 0 1\ng 0 0\ng 1 1\n")
        with pytest.raises(InstanceFormatError,
                           match=r"^constraint 1: a nogood is not 2 values in \[0, 2\)$"):
            bad.validate()


def test_mixed_arity_can_be_neither_validated_nor_written():
    mixed = Instance(4, 2, (Constraint((0, 1), frozenset({(0, 0)})),
                            Constraint((1, 2, 3), frozenset({(0, 0, 1)}))))
    with pytest.raises(InstanceFormatError, match="mix arities"):
        mixed.validate()
    sink = io.StringIO()
    with pytest.raises(InstanceFormatError, match="mix arities"):
        write_instance(mixed, sink)
    assert sink.getvalue() == ""


def _written(instance):
    sink = io.StringIO()
    write_instance(instance, sink)
    return sink.getvalue()


@settings(max_examples=50, deadline=None)
@given(k=st.integers(2, 4), n=st.integers(4, 7), alpha=st.floats(0.5, 0.9),
       r=st.floats(0.2, 1.5), p=st.floats(0.01, 0.99),
       seed=st.integers(0, 2 ** 64 - 1))
def test_write_read_write_round_trip(k, n, alpha, r, p, seed):
    inst = generate(RbParams(k, n, alpha, r, p, seed))
    first = _written(inst)
    back = read_instance(io.StringIO(first))
    assert (back.n, back.d, back.constraints) == (inst.n, inst.d, inst.constraints)
    # the read-back instance has no provenance, so no '#' lines
    assert _written(back) == "".join(
        line for line in first.splitlines(keepends=True) if not line.startswith("#"))


@st.composite
def edge_instances(draw):
    """Instances at the edges of validate()'s rules: n from 0, d from 1, and k
    from 2 to 3, with constraints only when k variables exist."""
    n, d, k = draw(st.integers(0, 5)), draw(st.integers(1, 4)), draw(st.integers(2, 3))
    if k > n:
        return Instance(n, d, ())
    scopes = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    nogoods = st.frozensets(st.tuples(*[st.integers(0, d - 1)] * k), max_size=6)
    return Instance(n, d, tuple(draw(st.lists(
        st.builds(Constraint, scopes.map(lambda s: tuple(sorted(s))), nogoods), max_size=4))))


def _valid(instance):
    try:
        instance.validate()
    except InstanceFormatError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(inst=edge_instances())
def test_every_valid_instance_reads_back_as_written(inst):
    # n = 1 with no constraints was valid, yet its header "k 2" refused to read
    assume(_valid(inst))
    assert read_instance(io.StringIO(_written(inst))) == inst
