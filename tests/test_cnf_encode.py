"""Direct boolean encoding and DIMACS serialization, checked against the model
counter in oracles."""

from __future__ import annotations

import io
import random
import re

import pytest

from rbcount.cnf_encode import (Cnf, DimacsError, boolean_var, encode_direct, read_dimacs,
                                write_dimacs)
from rbcount.exact_count import count_brute
from rbcount.rb_model import CapExceeded, Constraint, Instance, generate

from oracles import count_models, int_digit_limit, params_for


def test_variable_numbering_is_row_major_one_based():
    assert boolean_var(0, 0, 3) == 1
    assert boolean_var(0, 2, 3) == 3
    assert boolean_var(1, 0, 3) == 4
    assert boolean_var(4, 2, 3) == 15


def test_smallest_instance_dimacs_text():
    inst = Instance(1, 2, ())
    out = io.StringIO()
    write_dimacs(encode_direct(inst), out)
    assert out.getvalue() == "p cnf 2 2\n1 2 0\n-1 -2 0\n"


def test_single_nogood_encoding_clauses():
    inst = Instance(2, 2, (Constraint((0, 1), frozenset({(0, 0)})),))
    cnf = encode_direct(inst)
    assert cnf.num_vars == 4
    assert cnf.clauses == (
        (1, 2), (3, 4),          # each variable takes some value
        (-1, -2), (-3, -4),      # and at most one
        (-1, -3),                # forbid x0=0, x1=0
    )


def test_clause_census_matches_formula():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 7)
        k = rng.randint(2, min(3, n))
        d = rng.randint(2, 5)
        m = rng.randint(1, 10)
        t = rng.randint(1, d ** k - 1)
        inst = generate(params_for(k, n, d, m, t, seed=rng.getrandbits(32)))
        cnf = encode_direct(inst)
        at_most_one = n * (d * (d - 1) // 2)
        nogood_total = sum(len(c.nogoods) for c in inst.constraints)
        assert cnf.num_vars == n * d
        assert len(cnf.clauses) == n + at_most_one + nogood_total


def test_encoding_of_generated_instances_is_valid():
    # write_dimacs does not validate: encode_direct's CNF of a valid instance
    # must pass Cnf.validate as built
    rng = random.Random(17)
    for k, max_d in ((2, 6), (3, 4), (4, 3)):
        for _ in range(15):
            n = rng.randint(k, 7)
            d = rng.randint(2, max_d)
            inst = generate(params_for(k, n, d, rng.randint(1, 12), rng.randint(1, d ** k - 1),
                                       seed=rng.getrandbits(32)))
            encode_direct(inst).validate()


@pytest.mark.parametrize("inst,message", [
    (Instance(1, 14143, ()),  # 1 + 14143 * 14142 / 2 clauses
     "100005154 clauses exceed the cap of 100000000"),
    (Instance(3, 10 ** 30, (Constraint((0, 1), frozenset({(0, 0)})),)),
     "at least 2^199 clauses exceed the cap of 100000000"),
    (Instance(10 ** 5000, 2, ()),
     "at least 2^16610 clauses exceed the cap of 100000000"),
], ids=["just-past-cap", "huge-d", "huge-n"])
def test_encode_refuses_more_clauses_than_the_cap(inst, message):
    # the count n + n*d(d-1)/2 + nogoods is checked before any clause is built
    with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
        encode_direct(inst)


def test_model_count_equals_assignment_count():
    rng = random.Random(202)
    for _ in range(60):
        n = rng.randint(2, 6)
        k = rng.randint(2, min(3, n))
        d = rng.randint(2, 4)
        m = rng.randint(1, 9)
        t = rng.randint(1, d ** k - 1)
        inst = generate(params_for(k, n, d, m, t, seed=rng.getrandbits(32)))
        assert count_models(encode_direct(inst)) == count_brute(inst).count


def test_model_count_without_constraints():
    assert count_models(encode_direct(Instance(3, 3, ()))) == 27


def test_model_counter_on_hand_rolled_cnf():
    # (x1 or x2) and (not x1 or not x2): exactly the two one-hot assignments
    cnf = Cnf(2, ((1, 2), (-1, -2)))
    assert count_models(cnf) == 2
    # tautology-free contradiction
    cnf = Cnf(1, ((1,), (-1,)))
    assert count_models(cnf) == 0
    # free variable doubles the count
    cnf = Cnf(3, ((1, 2), (-1, -2)))
    assert count_models(cnf) == 4


def test_dimacs_round_trip_preserves_everything():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 5)
        d = rng.randint(2, 4)
        m = rng.randint(1, 6)
        t = rng.randint(1, d * d - 1)
        inst = generate(params_for(2, n, d, m, t, seed=rng.getrandbits(32)))
        cnf = encode_direct(inst)
        out = io.StringIO()
        write_dimacs(cnf, out, comments=["generated for a round-trip check"])
        back = read_dimacs(io.StringIO(out.getvalue()))
        assert back.num_vars == cnf.num_vars
        assert back.clauses == cnf.clauses


def test_read_dimacs_accepts_comments_and_blank_lines():
    text = "c a comment\n\np cnf 2 1\nc another\n1 -2 0\n"
    cnf = read_dimacs(io.StringIO(text))
    assert cnf.num_vars == 2
    assert cnf.clauses == ((1, -2),)


@pytest.mark.parametrize("text", [
    "",                                  # no header
    "p cnf 2\n1 0\n",                    # short header
    "p sat 2 1\n1 0\n",                  # wrong format word
    "p cnf 2 1\n",                       # fewer clauses than declared
    "p cnf 2 1\n1 0\n2 0\n",             # more clauses than declared
    "p cnf 2 1\n1 2\n",                  # missing terminating 0
    "p cnf 2 1\n1 0 2 0\n",              # stray literal after terminator
    "p cnf 2 1\n3 0\n",                  # literal out of range
    "p cnf 2 1\n0\n",                    # empty clause
    "p cnf 2 1\n1 x 0\n",                # non-integer literal
    "p cnf -2 1\n1 0\n",                 # negative variable count
    "p cnf 2 1\np cnf 2 1\n1 0\n",       # duplicate header
    "p cnf 2 1\n+1 0\n",                 # plus sign
    "p cnf 2 1\n1 \u0660\n",             # arabic-indic zero
    "p cnf 1_0 1\n1 0\n",                # underscore in the header
    "p cnf \uff12 1\n1 0\n",             # fullwidth digit in the header
])
def test_read_dimacs_rejects_malformed(text):
    with pytest.raises(DimacsError):
        read_dimacs(io.StringIO(text))


def test_read_dimacs_names_the_line_of_a_clause_before_the_problem_line():
    with pytest.raises(DimacsError, match=r"^line 2: clause before problem line$"):
        read_dimacs(io.StringIO("c comment\n1 -2 0\np cnf 2 1\n"))


@pytest.mark.parametrize("template,message", [
    ("p cnf {big} 1\n1 0\n", "line 1: malformed problem line: integer '{prefix}'... "
                             "has too many digits ({digits})"),
    ("p cnf 2 1\n{big} 0\n", "line 2: integer '{prefix}'... has too many digits ({digits})"),
], ids=["header", "literal"])
def test_read_dimacs_names_an_integer_with_too_many_digits(template, message):
    limit = int_digit_limit()
    big = "1" + "0" * limit
    with pytest.raises(DimacsError) as err:
        read_dimacs(io.StringIO(template.format(big=big)))
    assert str(err.value) == message.format(prefix=big[:20], digits=limit + 1)
    assert len(str(err.value)) < 200


def test_cnf_validate_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Cnf(2, ((),)).validate()          # empty clause
    with pytest.raises(ValueError):
        Cnf(2, ((3,),)).validate()        # out of range
    with pytest.raises(ValueError):
        Cnf(2, ((0,),)).validate()        # zero literal
    with pytest.raises(ValueError):
        Cnf(2, ((1, -1),)).validate()     # same variable both ways
    Cnf(2, ((1, -2),)).validate()


def test_written_header_counts_match_body():
    inst = generate(params_for(2, 4, 3, 5, 3, seed=9))
    out = io.StringIO()
    write_dimacs(encode_direct(inst), out)
    lines = [ln for ln in out.getvalue().splitlines() if not ln.startswith("c")]
    _, _, nv, nc = lines[0].split()
    assert len(lines) - 1 == int(nc)
    top = max(abs(int(tok)) for ln in lines[1:] for tok in ln.split())
    assert top <= int(nv)


def test_write_dimacs_writes_list_and_mixed_length_clauses_as_text():
    # clauses of any length, in any order, as tuples or lists: one line each
    cnf = Cnf(4, ((1, 2, 3, 4), [-1, 2], (-3,), [4], (2, -4, 1)))
    out = io.StringIO()
    write_dimacs(cnf, out, comments=["mixed"])
    assert out.getvalue() == ("c mixed\np cnf 4 5\n1 2 3 4 0\n-1 2 0\n-3 0\n4 0\n"
                              "2 -4 1 0\n")


def test_encode_direct_negates_each_nogood_value():
    inst = Instance(4, 3, (Constraint((0, 2, 3), frozenset({(2, 0, 1), (0, 1, 2)})),
                           Constraint((0, 1, 3), frozenset()),
                           Constraint((1, 2, 3), frozenset({(1, 1, 1)}))))
    clauses = encode_direct(inst).clauses[-3:]
    assert clauses == tuple(tuple(-boolean_var(var, val, 3) for var, val in zip(c.scope, ng))
                            for c in inst.constraints for ng in sorted(c.nogoods))
    assert clauses == ((-1, -8, -12), (-3, -7, -11), (-5, -8, -11))
