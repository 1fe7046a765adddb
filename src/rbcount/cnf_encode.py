"""Direct CNF encoding of instances and DIMACS I/O.

The encoding is count-preserving: boolean models correspond one-to-one with
CSP solutions.  Variable b(i, v) = i*d + v + 1 says "CSP variable i takes
value v"; each CSP variable gets an at-least-one clause and pairwise
at-most-one clauses, and every nogood contributes one all-negative clause.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, TextIO

from .rb_model import Instance, check_cap, int_token


class DimacsError(ValueError):
    """Raised when DIMACS text cannot be parsed or fails validation."""


@dataclass(frozen=True)
class Cnf:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def validate(self) -> None:
        for idx, clause in enumerate(self.clauses):
            if not clause:
                raise DimacsError(f"clause {idx} is empty")
            seen = set()
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise DimacsError(f"clause {idx}: literal {lit} out of range")
                if -lit in seen:
                    raise DimacsError(f"clause {idx} contains both {lit} and {-lit}")
                seen.add(lit)


def boolean_var(i: int, v: int, d: int) -> int:
    """DIMACS variable (1-based) asserting CSP variable i takes value v."""
    return i * d + v + 1


def encode_direct(instance: Instance) -> Cnf:
    """Encode with one boolean per (variable, value) pair.

    Clause order is deterministic: at-least-one per variable, then pairwise
    at-most-one per variable, then one clause per nogood with nogoods in
    sorted order.  The instance must be valid, as read_instance and generate
    return it: the CNF is built unchecked, once check_cap passes its clauses,
    and write_dimacs writes it as it stands.
    """
    n, d = instance.n, instance.d
    check_cap(n + n * (d * (d - 1) // 2) + sum(len(c.nogoods) for c in instance.constraints),
              "clauses")
    # neg[i][v] = -boolean_var(i, v, d), one int shared by every clause that holds it
    neg = [[-boolean_var(i, v, d) for v in range(d)] for i in range(n)]
    clauses: list[tuple[int, ...]] = [tuple(boolean_var(i, v, d) for v in range(d))
                                      for i in range(n)]
    for lits in neg:
        clauses.extend(itertools.combinations(lits, 2))
    for c in instance.constraints:
        # the sorted nogoods column by column, each value mapped to its literal,
        # zipped back into one clause per nogood
        columns = zip(*sorted(c.nogoods))
        clauses.extend(zip(*[map(neg[var].__getitem__, col)
                             for var, col in zip(c.scope, columns)]))
    return Cnf(num_vars=n * d, clauses=tuple(clauses))


def write_dimacs(cnf: Cnf, sink: TextIO, comments: Iterable[str] = ()) -> None:
    """Write cnf as DIMACS text, one clause per line, without validating it:
    encode_direct's CNF of a valid instance is valid, and read_dimacs
    validates what it reads."""
    for comment in comments:
        sink.write(f"c {comment}\n")
    sink.write(f"p cnf {cnf.num_vars} {len(cnf.clauses)}\n")
    # one format per run of equal-length clauses; %s formats an int as str() does
    for size, run in itertools.groupby(cnf.clauses, len):
        sink.writelines(map(("%s " * size + "0\n").__mod__, map(tuple, run)))


def read_dimacs(source: TextIO) -> Cnf:
    """Strict DIMACS reader: one clause per line, counts must match the header.

    This is where DIMACS text enters, so the CNF is validated here: no empty
    clause, literals nonzero and within the header's variable count, no
    variable both ways in one clause.
    """
    num_vars = None
    declared = None
    clauses: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed problem line")
            try:
                num_vars, declared = int_token(parts[2]), int_token(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: malformed problem line: {exc}") from None
            if num_vars < 0 or declared < 0:
                raise DimacsError(f"line {lineno}: negative counts")
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause before problem line")
        try:
            lits = list(map(int_token, line.split()))
        except ValueError as exc:
            raise DimacsError(f"line {lineno}: {exc}") from None
        if not lits or lits[-1] != 0:
            raise DimacsError(f"line {lineno}: clause must end with 0")
        if 0 in lits[:-1]:
            raise DimacsError(f"line {lineno}: stray 0 inside clause")
        clauses.append(tuple(lits[:-1]))
    if num_vars is None:
        raise DimacsError("missing problem line")
    if declared != len(clauses):
        raise DimacsError(f"header declares {declared} clauses, found {len(clauses)}")
    cnf = Cnf(num_vars=num_vars, clauses=tuple(clauses))
    cnf.validate()
    return cnf

