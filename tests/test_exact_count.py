"""Exact counters and the integer threshold decision."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbcount.cnf_encode import encode_direct
from rbcount.exact_count import (count_backtrack, count_brute, decide_from_count,
                                 int_nth_root, threshold_ceiling)
from rbcount.experiments import SweepConfig, grid_values, instance_seed
from rbcount.rb_model import CapExceeded, Constraint, Instance, RbParams, generate
from rbcount.theory import ae_count, critical_density, critical_tightness

from oracles import EDGE_CASES, build, count_models, params_for, reference_count


# === anchors ===


def test_single_nogood_pair():
    inst = build(2, 2, [((0, 1), [(0, 0)])])
    assert count_brute(inst).count == 3
    assert count_backtrack(inst).count == 3


def test_no_constraints_counts_whole_space():
    inst = Instance(3, 4, ())
    res = count_brute(inst)
    assert res.count == 64 and res.nodes_visited == 64
    res = count_backtrack(inst)
    assert res.count == 64 and res.nodes_visited == 1  # resolved at the root


def test_contradictory_constraints_give_zero():
    inst = build(2, 2, [((0, 1), [(0, 0), (0, 1), (1, 0), (1, 1)])])
    assert count_brute(inst).count == 0
    assert count_backtrack(inst).count == 0


def test_forced_single_solution():
    # nogoods leave exactly one tuple per constraint on a chain
    inst = build(3, 2, [
        ((0, 1), [(0, 0), (0, 1), (1, 0)]),   # forces (1, 1)
        ((1, 2), [(0, 0), (0, 1), (1, 0)]),   # forces (1, 1)
    ])
    assert count_brute(inst).count == 1
    assert count_backtrack(inst).count == 1


def test_brute_cap():
    inst = Instance(9, 10, ())  # 10^9 assignments
    with pytest.raises(CapExceeded):
        count_brute(inst)


# === hand-built edge cases ===


@pytest.mark.parametrize("case_idx", range(len(EDGE_CASES)))
def test_backtrack_matches_brute_on_edge_cases(case_idx):
    n, d, constraints = EDGE_CASES[case_idx]
    inst = build(n, d, constraints)
    expect = reference_count(inst)
    assert count_brute(inst).count == expect
    assert count_backtrack(inst).count == expect


# === randomised equivalence ===


def test_backtrack_matches_brute_on_random_instances():
    rng = random.Random(1234)
    for trial in range(200):
        n = rng.randint(2, 8)
        k = rng.randint(2, min(4, n))
        d = rng.randint(2, 5)
        while d ** n > 100_000:
            d -= 1
        d = max(d, 2)
        dk = d ** k
        m = rng.randint(1, 14)
        t = rng.randint(1, dk - 1)
        params = params_for(k, n, d, m, t, seed=rng.getrandbits(48))
        inst = generate(params)
        rb = count_brute(inst)
        rk = count_backtrack(inst)
        assert rb.count == rk.count, f"trial {trial}: {rb.count} != {rk.count}"


@pytest.mark.parametrize("k", [2, 3, 4])
def test_counters_agree_with_oracle_and_cnf_model_count(k):
    # Every tenth instance has no constraints and every tenth another one
    # forbids every tuple of its scope; every third leaves a variable isolated.
    rng = random.Random(1000 + k)
    for trial in range(100):
        n = rng.randint(k + 1, 6)
        d = rng.randint(2, min(4, 24 // n))  # the CNF counter needs n*d <= 24
        linked = n - 1 if trial % 3 == 0 else n
        tuples = list(itertools.product(range(d), repeat=k))
        constraints = []
        for _ in range(0 if trial % 10 == 0 else rng.randint(1, 6)):
            scope = sorted(rng.sample(range(linked), k))
            constraints.append((scope, rng.sample(tuples, rng.randint(0, len(tuples)))))
        if trial % 10 == 5:
            constraints.append((sorted(rng.sample(range(linked), k)), tuples))
        inst = build(n, d, constraints)
        expect = count_brute(inst).count
        assert count_backtrack(inst).count == expect, f"trial {trial}"
        assert count_models(encode_direct(inst)) == expect, f"trial {trial}"


def test_memo_key_keeps_values_of_unfired_wide_constraints():
    # The order is 0, 1, 2, 3, 4.  (0, 3, 4) prunes only once variable 3 is
    # assigned, so until then the memo key must carry variable 0's value.
    # Variable 3 is reached four times and stores two states (two memo hits):
    # without those hits it would store four and nodes would be 15.
    inst = build(5, 2, [((0, 3, 4), [(1, 0, 1)]), ((0, 1, 2), [(1, 1, 1)])])
    res = count_backtrack(inst)
    assert res.count == count_brute(inst).count == 25
    assert (res.nodes_visited, res.memo_states) == (11, 5)


# Each case's (nodes_visited, memo_states) was recorded from the memoised
# depth-first counter, so the walk must expand the same keys.
WALK_CASES = {
    # (0, 1, 4) and (0, 1, 5) both fire at depth 1 and share both sources.
    "two-wide-tables-fire-together": (build(6, 3, [
        ((0, 1, 4), [(0, 0, 0), (1, 2, 1), (2, 2, 2), (0, 1, 2)]),
        ((0, 1, 5), [(0, 0, 1), (1, 2, 0), (2, 0, 2), (1, 1, 1)]),
        ((1, 2), [(0, 0)]), ((0, 3), [(2, 2)]), ((4, 5), [(0, 1), (2, 2)])]), 323, 28, 10),
    # The order is 0, 2, 1, 3, 4.  At depth 0, values 1 and 2 share a cut row
    # and no wide table fires, but variable 0's value steers (0, 2, 4), which
    # fires at depth 1: the two values must stay apart.
    "value-steers-an-unfired-table": (build(5, 3, [
        ((0, 1), [(1, 0), (2, 0)]), ((0, 2, 4), [(1, 0, 0), (2, 1, 1), (2, 0, 2)]),
        ((0, 3), [(0, 1)]), ((1, 2), [(1, 1)]), ((2, 3), [(0, 0)])]), 106, 13, 4),
    # Every value of the first depth empties variable 1, so the next depth is
    # reached by no key although later depths branch.
    "layer-empties-early": (build(6, 2, [
        ((0, 1), [(0, 0), (0, 1), (1, 0), (1, 1)]), ((0, 2), [(0, 0)]),
        ((2, 3), [(1, 1)]), ((3, 4), [(0, 0)]), ((4, 5), [(0, 1)])]), 0, 3, 1),
    # The order is 1, 2, 0, 3.  Both tables fire at depth 1 and read the
    # value of the variable branched there, so each value has its own mask.
    "wide-table-reads-the-branching-field": (build(4, 3, [
        ((0, 1, 2), [(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 1, 0)]),
        ((1, 2, 3), [(0, 0, 1), (2, 1, 1), (1, 2, 0)])]), 61, 13, 4),
    # Both values of variable 0 leave variable 1 the value 1, so they reach
    # one key of depth 1, but value 0 empties variable 3, final at depth 0.
    # The last depth, 1, has one final variable, 2.
    "two-moves-reach-a-key-one-empties-a-final": (build(4, 2, [
        ((0, 3), [(0, 0), (0, 1)]), ((0, 1), [(0, 0), (1, 0)]), ((1, 2), [(1, 1)])]), 2, 4, 2),
    # As above, but value 0 leaves variable 1 the value 0: the only move to
    # that key empties variable 3, so the key is not a memo state.
    "a-key-reached-only-with-an-empty-final": (build(4, 2, [
        ((0, 3), [(0, 0), (0, 1)]), ((0, 1), [(0, 1), (1, 0)]), ((1, 2), [(1, 1)])]), 2, 4, 2),
    # The last depth, 1, has two final variables, 2 and 3.  A last depth
    # always has one at least: its deepest neighbour.
    "last-depth-with-two-finals": (build(5, 2, [
        ((0, 1), [(0, 0)]), ((0, 4), [(1, 1)]), ((1, 2), [(1, 1)]), ((1, 3), [(0, 1)]),
        ((0, 2), [(1, 0)])]), 5, 6, 3),
    # The order is 1, 2, 0, 3, 4.  Keys of depth 1 that agree on variable 2
    # differ on variables 0 and 3, so they share their moves.
    "keys-share-the-moves-of-their-group": (build(5, 3, [
        ((0, 1), [(0, 0)]), ((0, 2), [(0, 1), (1, 2)]), ((1, 2), [(2, 2)]),
        ((2, 3), [(0, 0)]), ((1, 4), [(1, 1)])]), 111, 12, 4),
    # Tables fire at depths 2 and 3; keys that agree on the fields a table
    # reads differ elsewhere, so they share its lookups.
    "keys-share-the-wide-lookups-of-their-group": (build(6, 2, [
        ((1, 3, 5), [(0, 1, 0), (1, 1, 1)]), ((0, 2, 4), [(1, 1, 1), (0, 0, 1)])]), 36, 19, 9),
}


@pytest.mark.parametrize("name", WALK_CASES)
def test_walk_paths_keep_count_and_search_work(name):
    inst, count, nodes, states = WALK_CASES[name]
    res = count_backtrack(inst)
    assert res.count == count_brute(inst).count == count
    assert (res.nodes_visited, res.memo_states) == (nodes, states)


def test_a_chain_deeper_than_the_recursion_limit_counts():
    # Binary strings of length n with no "00" number Fibonacci(n + 2).
    n = 1500
    inst = build(n, 2, [((v, v + 1), [(0, 0)]) for v in range(n - 1)])
    a, b = 0, 1
    for _ in range(n + 2):
        a, b = b, a + b
    assert count_backtrack(inst).count == a


@st.composite
def small_instances(draw):
    k = draw(st.integers(2, 5))  # k = 5 gives wide tables four sources
    n = draw(st.integers(k, 6))
    d = draw(st.integers(2, 4))
    tuples = list(itertools.product(range(d), repeat=k))
    constraints = []
    for _ in range(draw(st.integers(0, 6))):
        scope = sorted(draw(st.permutations(range(n)))[:k])
        nogoods = draw(st.one_of(st.just([]), st.just(tuples),
                                 st.lists(st.sampled_from(tuples), max_size=len(tuples))))
        constraints.append((scope, nogoods))
    return build(n, d, constraints)


@settings(max_examples=200, deadline=None)
@given(inst=small_instances())
def test_backtrack_matches_brute_property(inst):
    assert count_backtrack(inst).count == count_brute(inst).count


def test_adding_constraints_never_raises_count():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(3, 6)
        d = rng.randint(2, 4)
        constraints = []
        prev = d ** n
        for _ in range(rng.randint(2, 6)):
            scope = tuple(sorted(rng.sample(range(n), 2)))
            nogoods = {tuple(rng.randrange(d) for _ in range(2))
                       for _ in range(rng.randint(1, d * d - 1))}
            constraints.append(Constraint(scope, frozenset(nogoods)))
            cur = count_backtrack(Instance(n, d, tuple(constraints))).count
            assert cur <= prev
            prev = cur


def test_count_invariant_under_constraint_order():
    rng = random.Random(5)
    params = params_for(2, 6, 3, 8, 4, seed=77)
    inst = generate(params)
    base = count_backtrack(inst).count
    for _ in range(5):
        shuffled = list(inst.constraints)
        rng.shuffle(shuffled)
        assert count_backtrack(Instance(inst.n, inst.d, tuple(shuffled))).count == base


def test_nodes_visited_well_below_brute_on_structured_instance():
    params = params_for(2, 8, 4, 12, 6, seed=3)
    inst = generate(params)
    rb, rk = count_brute(inst), count_backtrack(inst)
    assert rb.count == rk.count
    assert rk.nodes_visited < rb.nodes_visited / 10


# (k, n, alpha, r), its p values and instances per p: the criterion-3 grid
# at n=7 and n=10 and the count-k3 benchmark point, seeded as the sweep and
# the benchmark seed them, instance_seed(0, p index, instance index).
SEARCH_POINTS = [
    ((2, 7, 0.8, 1.7), grid_values(0.05, 0.45, 0.02), 3),
    ((2, 10, 0.8, 1.7), grid_values(0.05, 0.45, 0.02), 2),
    ((3, 8, 0.8, 1.0), (0.05, 0.10, 0.15, 0.20), 3),
]
SEARCH_DIGEST = "64ffd500eba422097801aa12054651ba946f042a67df0a13e6b7ef6bf433d515"


def test_search_work_is_pinned():
    """The count, nodes_visited and memo_states of each instance, in order:
    any change to the order, the pruning or the memo key moves the digest."""
    lines = []
    for head, ps, per_point in SEARCH_POINTS:
        for pi, p in enumerate(ps):
            for ii in range(per_point):
                res = count_backtrack(generate(RbParams(*head, p, instance_seed(0, pi, ii))))
                lines.append(f"{res.count} {res.nodes_visited} {res.memo_states}\n")
    assert len(lines) == 117
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == SEARCH_DIGEST


def random_family(seed, size):
    """size instances with n <= 12, d <= 5 and one arity in 2..4 each; some
    constraints have no nogood and some every tuple but one."""
    rng = random.Random(seed)
    for _ in range(size):
        k = rng.randint(2, 4)
        n = rng.randint(k, 12)
        d = rng.randint(2, 5)
        tuples = list(itertools.product(range(d), repeat=k))
        constraints = []
        for _ in range(rng.randint(0, 2 * n)):
            scope = sorted(rng.sample(range(n), k))
            shape = rng.random()
            if shape < 0.1:
                nogoods = []
            elif shape < 0.2:
                nogoods = tuples[:]
                nogoods.remove(rng.choice(tuples))
            else:
                nogoods = rng.sample(tuples, rng.randint(1, max(1, len(tuples) // 3)))
            constraints.append((scope, nogoods))
        yield build(n, d, constraints)


FAMILY_DIGEST = "810663fd2813048bfb0f6bf1e6891b2bf36c645a028baafcfc32ad052d8227b7"


def test_search_work_is_pinned_beyond_generated_instances():
    """As above, over 300 seeded random instances that the generator cannot
    produce: empty and nearly full constraints, arities 2 to 4."""
    lines = []
    for inst in random_family(20, 300):
        res = count_backtrack(inst)
        lines.append(f"{res.count} {res.nodes_visited} {res.memo_states}\n")
    assert sum(line.startswith("0 ") for line in lines) == 63
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == FAMILY_DIGEST


# === decisions ===


def test_decide_matches_integer_root_threshold():
    rng = random.Random(17)
    for _ in range(400):
        d = rng.randint(2, 9)
        n = rng.randint(1, 24)
        divisor = rng.randint(2, 6)
        ceiling = threshold_ceiling(d, n, divisor)
        for count in (0, 1, ceiling - 1, ceiling, ceiling + 1,
                      rng.randint(0, d ** n + 1)):
            if count < 0:
                continue
            answer = decide_from_count(count, d, n, divisor)
            assert answer == (count >= ceiling), (d, n, divisor, count)


def test_decide_boundary_is_exact_for_perfect_squares():
    # d^n square: count == d^(n/2) answers YES, one less answers NO
    assert decide_from_count(7776, 6, 10, 2) is True
    assert decide_from_count(7775, 6, 10, 2) is False


def test_decide_rejects_bad_divisor():
    with pytest.raises(ValueError):
        decide_from_count(10, 2, 4, 1)
    with pytest.raises(ValueError):
        decide_from_count(10, 2, 4, math.inf)


@pytest.mark.parametrize("call,message", [
    (lambda: decide_from_count(-1, 2, 4), "count must be >= 0"),
    (lambda: int_nth_root(-1, 2), "need x >= 0 and t >= 1"),
    (lambda: int_nth_root(8, 0), "need x >= 0 and t >= 1"),
    (lambda: threshold_ceiling(1, 4), "need d >= 2 and n >= 1"),
    (lambda: threshold_ceiling(2, 0), "need d >= 2 and n >= 1"),
], ids=["count", "root-x", "root-t", "ceiling-d", "ceiling-n"])
def test_integer_helpers_name_their_bad_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_huge_divisor_is_decided_exactly_and_at_once():
    # count ** divisor and Newton steps on a 10**20-th root would never finish
    huge = 10 ** 20
    for d, n in ((2, 1), (2, 3), (3, 4), (9, 7)):
        space = d ** n
        bits = space.bit_length()
        for divisor in (max(2, bits - 1), bits, bits + 1, huge):
            ceiling = threshold_ceiling(d, n, divisor)
            for count in (0, 1, 2, 3, space):
                slow = count >= 2 if divisor == huge else count ** divisor >= space
                answer = decide_from_count(count, d, n, divisor)
                assert answer == slow == (count >= ceiling), (d, n, divisor, count)
    assert int_nth_root(2 ** 64 - 1, 64) == 1
    assert int_nth_root(2 ** 64, 64) == 2
    assert int_nth_root(2 ** 64, huge) == 1


# Every function that takes a divisor, called with it; the closed-form ones
# also take an infinite divisor (the satisfiability threshold).
PARAMS = RbParams(2, 20, 0.8, 1.7, 0.2)
DIVISOR_TAKERS = {
    "critical_tightness": lambda divisor: critical_tightness(0.8, 1.7, divisor),
    "critical_density": lambda divisor: critical_density(0.8, 0.2, divisor),
    "ae_count": lambda divisor: ae_count(PARAMS, 0.9, divisor),
    "threshold_ceiling": lambda divisor: threshold_ceiling(5, 7, divisor),
    "decide_from_count": lambda divisor: decide_from_count(280, 5, 7, divisor),
    "SweepConfig": lambda divisor: SweepConfig(RbParams(2, 5, 0.8, 1.5, 0.1), 0.3, 0.2,
                                               divisor=divisor),
}
TAKES_INFINITY = ("critical_tightness", "critical_density", "ae_count")


@pytest.mark.parametrize("divisor", [1, 2.0, math.nan, math.inf])
@pytest.mark.parametrize("taker", DIVISOR_TAKERS)
def test_one_divisor_rule(taker, divisor):
    call = DIVISOR_TAKERS[taker]
    call(2)
    if divisor == math.inf and taker in TAKES_INFINITY:
        call(divisor)
        return
    message = f"divisor must be an integer >= 2, got {divisor}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(divisor)
