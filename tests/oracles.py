"""Reference routes and shared builders for the tests.

Not a test module: pytest collects only ``test_*.py``, and every test module
that needs one of these imports it from here rather than from another test
module.  The oracles are independent of the package's counters: a plain
per-assignment check, a count that filters the whole assignment space with
it, and a model counter for CNFs.  They run on small inputs only, so none of
them checks a budget.
"""

from __future__ import annotations

import itertools
import math
import sys

import pytest

from rbcount.cnf_encode import Cnf
from rbcount.rb_model import Constraint, DerivedSizes, Instance, RbParams, derive_sizes


def params_for(k, n, d, m, t, seed=0):
    """Parameters that concretise exactly to the requested integer sizes."""
    alpha = math.log(d) / math.log(n)
    r = m / (n * math.log(n))
    p = t / d ** k
    got = derive_sizes(RbParams(k, n, alpha, r, p, seed))
    assert got == DerivedSizes(d, m, t, p)
    return RbParams(k, n, alpha, r, p, seed)


def int_digit_limit():
    """The most digits int() converts; skips the test on a Python without a limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integers of any length")
    return limit


def build(n, d, constraints):
    """An Instance from (scope, nogoods) pairs given as plain sequences."""
    return Instance(n, d, tuple(
        Constraint(tuple(scope), frozenset(map(tuple, nogoods)))
        for scope, nogoods in constraints))


def allows(constraint, assignment):
    """True when the constraint does not forbid its projection of the assignment,
    a sequence of value indices, one per variable."""
    return tuple(assignment[v] for v in constraint.scope) not in constraint.nogoods


def satisfies(instance, assignment):
    """True when no constraint forbids its projection of the assignment."""
    return all(allows(c, assignment) for c in instance.constraints)


def reference_count(instance):
    """Third, independent route: filter the assignment space via satisfies()."""
    return sum(1 for a in itertools.product(range(instance.d), repeat=instance.n)
               if satisfies(instance, a))


def count_models(cnf: Cnf) -> int:
    """Count satisfying boolean assignments by depth-first enumeration.

    Assigns variables in numeric order and fails a branch as soon as some
    clause has all its literals false; once past the highest variable any
    clause mentions, the remaining variables are free.  Independent of the
    CSP counters, so it serves as a cross-check for encode_direct.
    """
    nv = cnf.num_vars
    # Clauses keyed by their highest variable; checked once it gets a value.
    by_max: list[list[tuple[int, ...]]] = [[] for _ in range(nv + 1)]
    max_var = 0
    for clause in cnf.clauses:
        hv = max(abs(lit) for lit in clause)
        by_max[hv].append(clause)
        if hv > max_var:
            max_var = hv

    val = [False] * (nv + 1)  # 1-based
    count = 0

    def falsified(var: int) -> bool:
        for clause in by_max[var]:
            for lit in clause:
                if val[lit] if lit > 0 else not val[-lit]:
                    break
            else:
                return True
        return False

    def visit(var: int) -> None:
        nonlocal count
        if var > max_var:
            count += 2 ** (nv - var + 1)
            return
        for choice in (False, True):
            val[var] = choice
            if not falsified(var):
                visit(var + 1)

    visit(1)
    return count


EDGE_CASES = [
    # (n, d, [(scope, nogoods), ...])
    (2, 2, []),                                       # no constraints at all
    (2, 2, [((0, 1), [])]),                           # constraint with no nogoods
    (2, 2, [((0, 1), [(0, 0)])]),
    (2, 2, [((0, 1), [(0, 0), (1, 1)])]),
    (2, 3, [((0, 1), [(0, 0), (0, 1), (0, 2)])]),     # kills value 0 of var 0
    (3, 2, [((0, 1), [(0, 0)]), ((0, 1), [(1, 1)])]),  # duplicate scope
    (3, 2, [((0, 1), [(0, 0)]), ((1, 2), [(1, 1)]), ((0, 2), [(0, 1)])]),  # cycle
    (3, 3, [((0, 2), [(0, 0), (1, 1), (2, 2)])]),     # one var untouched
    (3, 2, [((0, 1, 2), [(0, 0, 0), (1, 1, 1)])]),    # arity 3
    (3, 2, [((0, 1, 2), [(a, b, c) for a in range(2) for b in range(2)
                         for c in range(2)][:-1])]),  # single tuple survives
    (4, 2, [((0, 1), [(0, 0)]), ((2, 3), [(1, 1)])]),  # two components
    (4, 2, [((0, 1, 2, 3), [(0, 0, 0, 0)])]),         # scope = all variables
    (4, 3, [((0, 1), [(0, 0), (2, 2)]), ((1, 2), [(1, 1)]),
            ((2, 3), [(0, 2), (2, 0)]), ((0, 3), [(1, 2)])]),
    (5, 2, [((0, 4), [(0, 1), (1, 0)])]),             # long-range equality
    (5, 2, [((i, i + 1), [(0, 0)]) for i in range(4)]),  # chain
    (5, 2, [((0, i), [(0, 0), (1, 1)]) for i in range(1, 5)]),  # star, difference
    (4, 4, [((0, 1), [(v, v) for v in range(4)]),
            ((1, 2), [(v, v) for v in range(4)]),
            ((2, 3), [(v, v) for v in range(4)])]),   # proper colouring of a path
    (3, 4, [((0, 1), [(v, w) for v in range(4) for w in range(4)
                      if (v + w) % 2 == 0])]),        # parity constraint
    (2, 5, [((0, 1), [(v, w) for v in range(5) for w in range(5)
                      if v != w][:23])]),             # nearly-total nogoods
    (6, 2, [((0, 1, 2), [(0, 0, 0)]), ((3, 4, 5), [(1, 1, 1)]),
            ((0, 5), [(0, 1)]), ((2, 3), [(1, 0), (0, 1)])]),  # mixed arity
]
