"""Random CSP instances of the Model RB family: k-ary constraints over d values.

An instance has n variables sharing the domain {0, ..., d-1} and m
constraints; each constraint names a k-subset of the variables (its scope)
and an explicit set of forbidden value tuples (nogoods).  Domain size and
constraint count grow with n as d = n^alpha and m = r * n * ln(n), which is
what makes the family exhibit sharp thresholds.  Everything here is
deterministic given the parameters: the generator derives every random draw
from (seed, constraint index, draw counter), word i of constraint c being
mix64(seed, c, i), so regenerating - in any order, on any machine - gives
byte-identical instances.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

MASK64 = (1 << 64) - 1

FORMAT_MAGIC = "rbcsp"
FORMAT_VERSION = 1


class InstanceFormatError(ValueError):
    """Raised when instance text cannot be parsed or fails validation."""


# The one budget of a job too large to finish: nogoods generation draws, clauses
# an encoding builds, assignments a brute-force count enumerates, bits of the
# counting walk's state.
DEFAULT_BRUTE_CAP = 10 ** 8


class CapExceeded(RuntimeError):
    """The job is larger than DEFAULT_BRUTE_CAP."""


# A power of more bits than this is sized from its exponent alone.
_EXACT_BITS = 1 << 16


def check_cap(size: int, unit: str, exponent: int = 1) -> None:
    """Raise CapExceeded when a job of size ** exponent units exceeds
    DEFAULT_BRUTE_CAP, in one short line: a job of 10^60 units or more reads
    "at least 2^x".  When exponent * floor(log2 size), a lower bound on the
    job's log2, exceeds _EXACT_BITS, the power is not built and x is that
    bound, so a huge d^n is refused at once."""
    low = exponent * (size.bit_length() - 1)
    if low > _EXACT_BITS:
        shown = f"at least 2^{low}"
    else:
        size **= exponent
        if size <= DEFAULT_BRUTE_CAP:
            return
        shown = str(size) if size < 10 ** 60 else f"at least 2^{size.bit_length() - 1}"
    raise CapExceeded(f"{shown} {unit} exceed the cap of {DEFAULT_BRUTE_CAP}")


# ---------------------------------------------------------------------------
# deterministic draws
# ---------------------------------------------------------------------------

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_LITTLE_ENDIAN = sys.byteorder == "little"


def _round(x: int) -> int:
    """SplitMix64's round: the output word of input x."""
    h = (x + _GOLDEN) & MASK64
    h = ((h ^ (h >> 30)) * _MIX1) & MASK64
    h = ((h ^ (h >> 27)) * _MIX2) & MASK64
    return h ^ (h >> 31)


def mix64(*words: int) -> int:
    """Avalanche a sequence of integers into one 64-bit word.

    Pure function of its arguments, so any individual draw can be recomputed
    in isolation; generation order and parallelism never change output.
    """
    h = 0
    for w in words:
        h = _round(h ^ (w & MASK64))
    return h


LANE_CAP = 2048  # lanes in one _lane_words pass: ints of 32 KiB
_LOW_LANE = b"\xff" * 8 + bytes(8)
_GOLDEN_LANE = _GOLDEN.to_bytes(16, "little")


def _lane_words(states: Sequence[int], first: int, count: int) -> list[int]:
    """Words first .. first+count-1 of each stream state s, _round(s ^ i),
    stream by stream, in one lane-parallel pass over len(states) * count lanes.

    Bits 128j .. 128j+63 of one int hold the j-th input s ^ i, and each step
    of the round is one int operation over all lanes, at C speed.  A lane is
    128 bits because a value below 2^64 times a 64-bit constant stays below
    2^128, so a multiply never carries into the next lane.  A right shift drags
    the next lane's low bits into this lane's high half, so each lane is masked
    back to 64 bits before a multiply or a shift could carry them into its low
    half; the last xor's high halves are never read.  Callers keep a pass
    within LANE_CAP lanes, so its ints stay within 32 KiB whatever the
    instance, and nothing sized to a pass outlives it.
    """
    lanes = len(states) * count
    ramp = b"".join([i.to_bytes(16, "little") for i in range(first, first + count)])
    x = (int.from_bytes(b"".join([s.to_bytes(16, "little") * count for s in states]), "little")
         ^ int.from_bytes(ramp * len(states), "little"))
    low = int.from_bytes(_LOW_LANE * lanes, "little")
    x = (x + int.from_bytes(_GOLDEN_LANE * lanes, "little")) & low
    x = ((x ^ (x >> 30)) & low) * _MIX1 & low
    x = ((x ^ (x >> 27)) & low) * _MIX2 & low
    x ^= x >> 31
    # The low 64 bits of each lane: every other native 8-byte word of the
    # little-endian bytes, or, on a big-endian host, of the big-endian bytes
    # read from the end.
    if _LITTLE_ENDIAN:
        return memoryview(x.to_bytes(16 * lanes, "little")).cast("Q")[::2].tolist()
    return memoryview(x.to_bytes(16 * lanes, "big")).cast("Q")[::-2].tolist()


# ---------------------------------------------------------------------------
# parameters and derived sizes
# ---------------------------------------------------------------------------


class _RbFields(NamedTuple):
    k: int
    n: int
    alpha: float
    r: float
    p: float
    seed: int = 0


class RbParams(_RbFields):
    """The five Model RB knobs plus the generator seed.

    k: constraint arity; n: variable count; alpha: domain growth exponent
    (d = n^alpha); r: constraint density (m = r*n*ln n); p: constraint
    tightness, the fraction of value tuples each constraint forbids.
    Construction and unpickling check every field; _replace and _make take
    the fields as they are.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.k < 2:
            raise ValueError(f"arity k must be >= 2, got {self.k}")
        if self.n < 2:
            raise ValueError(f"variable count n must be >= 2, got {self.n}")
        if self.k > self.n:
            raise ValueError(f"arity k={self.k} exceeds variable count n={self.n}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0 < self.r < math.inf:
            raise ValueError(f"density r must be finite and > 0, got {self.r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"tightness p must lie in (0, 1), got {self.p}")
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must fit in 64 bits")
        try:
            derive_sizes(self)
        except OverflowError:
            raise ValueError(f"sizes d = n^alpha, m = r*n*ln n or d^k overflow at k={self.k} "
                             f"n={self.n} alpha={self.alpha} r={self.r}") from None
        return self


class DerivedSizes(NamedTuple):
    """What a parameter point realises: its integer sizes and tightness p_eff."""

    d: int          # domain size, >= 2
    m: int          # constraint count, >= 1
    t_nogoods: int  # forbidden tuples per constraint, in [1, d**k - 1]
    p_eff: float    # realised tightness t_nogoods / d**k, in (0, 1)


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from zero (toward +inf)."""
    return math.floor(x + 0.5)


def derive_sizes(params: RbParams) -> DerivedSizes:
    """Concretise (k, n, alpha, r, p) into integer sizes (d, m, t_nogoods)
    and the effective tightness p_eff they realise.

    d = round(n^alpha) clamped to >= 2, m = round(r*n*ln n) clamped to >= 1,
    t_nogoods = round(p*d^k) clamped into [1, d^k - 1], p_eff = t_nogoods/d^k.
    Rounding is half-up throughout.  Raises OverflowError when a size leaves
    the float range.
    """
    d = max(2, round_half_up(params.n ** params.alpha))
    m = max(1, round_half_up(params.r * params.n * math.log(params.n)))
    if params.k * math.log2(d) > 1025:  # past the float range, so p * d^k overflows
        raise OverflowError(f"d^k = {d}^{params.k} is too large")
    dk = d ** params.k
    t = min(max(1, round_half_up(params.p * dk)), dk - 1)
    return DerivedSizes(d=d, m=m, t_nogoods=t, p_eff=t / dk)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


class Constraint(NamedTuple):
    """A scope (strictly increasing variable indices) plus forbidden tuples."""

    scope: tuple[int, ...]
    nogoods: frozenset[tuple[int, ...]]


class Instance(NamedTuple):
    n: int
    d: int
    constraints: tuple[Constraint, ...]
    provenance: RbParams | None = None  # the parameters that generated it

    def arity(self) -> int:
        """The arity all constraints share (2 when there are none); raises
        InstanceFormatError when they differ, as the text format has one k."""
        arities = {len(c.scope) for c in self.constraints}
        if len(arities) > 1:
            raise InstanceFormatError(f"constraints mix arities {sorted(arities)}")
        return arities.pop() if arities else 2

    def validate(self) -> None:
        """Raise InstanceFormatError if a structural rule is broken.

        The one home of the rules: n >= 1, d >= 2, one arity k >= 2 for all
        constraints, strictly increasing scopes in [0, n), nogoods of that
        arity with values in [0, d), and n >= k, k being 2 when there are no
        constraints, as write_instance's header says: an instance that passes
        reads back from what write_instance writes.  read_instance calls this.
        """
        if self.n < 1 or self.d < 2:
            raise InstanceFormatError(f"need n >= 1 and d >= 2, got n={self.n} d={self.d}")
        k = self.arity()
        if k < 2:
            raise InstanceFormatError(f"arity must be >= 2, got {k}")
        for ci, c in enumerate(self.constraints):
            s = c.scope
            if s[0] < 0 or s[-1] >= self.n or any(a >= b for a, b in zip(s, s[1:])):
                raise InstanceFormatError(f"constraint {ci}: scope {s} is not strictly "
                                          f"increasing in [0, {self.n})")
            if not c.nogoods:
                continue
            vals = set().union(*c.nogoods)
            if set(map(len, c.nogoods)) != {k} or min(vals) < 0 or max(vals) >= self.d:
                raise InstanceFormatError(f"constraint {ci}: a nogood is not {k} "
                                          f"values in [0, {self.d})")
        if k > self.n:
            raise InstanceFormatError(f"arity k={k} exceeds variable count n={self.n}")


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


class _Memo(dict):
    """key -> fn(key), computed on first lookup.  One instance repeats the same
    few tuple indices and text tokens many times over."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        val = self[key] = self.fn(key)
        return val


def _decode_tuple(index: int, d: int, k: int) -> tuple[int, ...]:
    if k == 2:  # measured: generate over a binary sweep runs about 7% slower without it
        return divmod(index, d)
    vals = [0] * k
    for i in range(k - 1, -1, -1):
        index, vals[i] = divmod(index, d)
    return tuple(vals)


def _expected_draws(bound: int, count: int) -> float:
    """Expected words to draw count distinct values below bound <= 2^64: the
    coupon collector's sum of bound/(bound - j) over j < count, about
    bound*ln((bound + 1/2)/(bound - count + 1/2)), over the acceptance rate
    bound/2^bits."""
    return (1 << (bound - 1).bit_length()) * math.log1p(count / (bound - count + 0.5))


def _take(words: Iterator[int], bound: int, count: int) -> set[int]:
    """count distinct draws below bound, taken from the endless words in
    order.  A draw is the top bits of as many whole words as bound needs,
    first word highest, rejected when it is not below bound or repeats an
    earlier draw: uniform over the count-subsets of [0, bound).  words is
    left after the last word used, so the next _take goes on from there."""
    bits = (bound - 1).bit_length()
    if bits > 64:  # zip over one iterator groups consecutive words
        words = (int.from_bytes(b"".join(w.to_bytes(8, "big") for w in group), "big")
                 for group in zip(*[words] * -(-bits // 64)))
    shift = -bits % 64
    seen: set[int] = set()
    for w in words:
        u = w >> shift
        if u < bound:
            seen.add(u)
            if len(seen) == count:
                break
    return seen


def generate(params: RbParams) -> Instance:
    """Generate an instance: m uniform scopes, each with t_nogoods distinct
    forbidden tuples drawn uniformly without replacement, once check_cap passes
    the m * t_nogoods nogoods.

    Constraint c draws its scope, then its nogoods, from stream c, whose word i
    is mix64(seed, c, i).  As mix64 absorbs words in order, that is one round,
    _round(state ^ i), from the stream's state mix64(seed, c), a plain int that
    is itself one round, _round(seed_state ^ c), from seed_state = mix64(seed).
    Scopes may repeat across constraints; equal parameters give equal instances.

    A constraint's words are its lane batch, then the scalar round from word
    batch on, one iterator that both of its _take calls read.  The batches come
    in lane-parallel passes (see _lane_words): one pass gives a group of
    constraints their stream states, the next gives each of them its first
    batch words, about as many as its draws below bounds of at most 2^64 are
    expected to take.  A group holds at most LANE_CAP words, the cap on one
    pass.
    """
    sizes = derive_sizes(params)
    k, n, d, m, t = params.k, params.n, sizes.d, sizes.m, sizes.t_nogoods
    check_cap(m * t, "nogoods")
    tuples = d ** k
    seed_state = mix64(params.seed)
    decoded = _Memo(lambda index: _decode_tuple(index, d, k))
    expected = sum(_expected_draws(bound, count)
                   for bound, count in ((n, k), (tuples, t)) if bound <= 1 << 64)
    batch = min(math.ceil(expected), LANE_CAP)
    group = LANE_CAP // max(batch, 1)
    constraints = []
    for c0 in range(0, m, group):
        states = _lane_words([seed_state], c0, min(group, m - c0))
        lanes = _lane_words(states, 0, batch)
        for j, state in enumerate(states):
            words = itertools.chain(lanes[j * batch:(j + 1) * batch],
                                    map(_round, map(state.__xor__, itertools.count(batch))))
            scope = _take(words, n, k)
            drawn = _take(words, tuples, t)
            constraints.append(Constraint(tuple(sorted(scope)),
                                          frozenset(map(decoded.__getitem__, drawn))))
    return Instance(params.n, sizes.d, tuple(constraints), provenance=params)


# ---------------------------------------------------------------------------
# instance text format
# ---------------------------------------------------------------------------
#
#   rbcsp 1
#   n <n> d <d> k <k> m <m>
#   c <v1> ... <vk>         one line per constraint, sorted variable indices
#   g <a1> ... <ak>         the constraint's nogoods, one tuple per line
#
# '#' starts a comment line; blank lines are ignored.  An integer is an
# optional '-' then ASCII digits, in this format and in DIMACS.


def write_instance(instance: Instance, sink: TextIO) -> None:
    """Write an instance in the plain-text exchange format (deterministic).

    Raises InstanceFormatError on mixed arities, writing nothing, and on a
    nogood that is not k values, having written the constraints before it.
    """
    k = instance.arity()
    if instance.provenance is not None:
        params = instance.provenance
        sizes = derive_sizes(params)
        sink.write(f"# generated: k={params.k} n={params.n} alpha={params.alpha!r}"
                   f" r={params.r!r} p={params.p!r} seed={params.seed}\n")
        sink.write(f"# derived: d={sizes.d} m={sizes.m} t_nogoods={sizes.t_nogoods}\n")
    sink.write(f"{FORMAT_MAGIC} {FORMAT_VERSION}\n")
    sink.write(f"n {instance.n} d {instance.d} k {k} m {len(instance.constraints)}\n")
    # each distinct nogood's line is formatted once; %s formats an int as str() does
    g_line = _Memo(("g" + " %s" * k + "\n").__mod__).__getitem__
    for ci, c in enumerate(instance.constraints):
        try:
            g_lines = "".join(map(g_line, sorted(c.nogoods)))
        except TypeError:  # % got a nogood not of length k
            raise InstanceFormatError(f"constraint {ci}: a nogood is not {k} "
                                      f"values in [0, {instance.d})") from None
        sink.write("c " + " ".join(map(str, c.scope)) + "\n")
        sink.write(g_lines)


def int_token(tok: str) -> int:
    """The integer a token spells as an optional '-' then ASCII digits.

    Raises ValueError on anything else int() would take ('+1', '1_0',
    non-ASCII digits) and on more digits than int() converts (Python's
    integer-string limit, 4300 by default).  The message quotes at most the
    token's first 20 characters, so it stays one short line.
    """
    digits = tok[1:] if tok[:1] == "-" else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected integer, got {_quote(tok)}")
    try:
        return int(tok)
    except ValueError:  # past the integer-string limit
        raise ValueError(f"integer {_quote(tok)} has too many digits ({len(digits)})") from None


def _quote(tok: str) -> str:
    return repr(tok) if len(tok) <= 20 else f"{tok[:20]!r}..."


def _ints(tokens: Iterable[str], lineno: int,
          parse: Callable[[str], int] = int_token) -> tuple[int, ...]:
    try:
        return tuple(map(parse, tokens))
    except ValueError as exc:
        raise InstanceFormatError(f"line {lineno}: {exc}") from None


def _next_tokens(lines: Iterable[tuple[int, str]]) -> tuple[int, list[str] | None]:
    """(line number, tokens) of the next line that is neither blank nor a
    comment; (0, None) at the end."""
    for lineno, ln in lines:
        if (toks := ln.split()) and not toks[0].startswith("#"):
            return lineno, toks
    return 0, None


def read_instance(source: TextIO) -> Instance:
    """Parse the text format into an Instance, then validate() it.

    The reader checks only the format: magic and version, the size line,
    integer tokens, k values per c/g line, no g before the first c, known
    tags, no duplicate nogood (a frozenset would hide it), the declared m,
    and the header's k >= 2, m >= 0 and k <= n, which validate() cannot see
    when m = 0.  Instance.validate checks the structure.  A constraint with
    no g lines is legal: it forbids nothing.
    """
    lines = enumerate(source, 1)
    lineno, parts = _next_tokens(lines)
    if parts is None:
        raise InstanceFormatError("empty input")
    if parts[0] != FORMAT_MAGIC:
        raise InstanceFormatError(f"line {lineno}: expected magic {FORMAT_MAGIC!r}")
    if parts[1:] != [str(FORMAT_VERSION)]:
        raise InstanceFormatError(f"line {lineno}: unsupported format version")
    lineno, toks = _next_tokens(lines)
    if toks is None:
        raise InstanceFormatError("missing size line")
    if len(toks) != 8 or toks[0::2] != ["n", "d", "k", "m"]:
        raise InstanceFormatError(f"line {lineno}: expected 'n <n> d <d> k <k> m <m>'")
    n, d, k, m = _ints(toks[1::2], lineno)
    if k < 2 or m < 0:
        raise InstanceFormatError(f"line {lineno}: need k >= 2 and m >= 0")
    size_line = lineno

    scopes: list[tuple[int, ...]] = []
    nogoods: list[set[tuple[int, ...]]] = []
    current = None  # the nogood set of the latest constraint
    as_int = _Memo(int_token).__getitem__
    # Each distinct g line's text is parsed once: an instance repeats a few
    # nogood lines many times.  A line is cached once it has passed the tag,
    # integer and length checks, whose outcome depends on its text alone from
    # then on (current is set before any g line passes), so a repeat goes
    # straight to the duplicate check.
    g_values: dict[str, tuple[int, ...]] = {}
    for lineno, ln in lines:
        vals = g_values.get(ln)
        if vals is None:
            toks = ln.split()  # blank and '#' lines are skipped as in _next_tokens
            if not toks:
                continue
            tag = toks[0]
            if tag == "g":
                if current is None:
                    raise InstanceFormatError(f"line {lineno}: nogood before any scope line")
            elif tag != "c":
                if tag.startswith("#"):
                    continue
                raise InstanceFormatError(f"line {lineno}: unknown line tag {tag!r}")
            vals = _ints(toks[1:], lineno, as_int)
            if len(vals) != k:
                raise InstanceFormatError(f"line {lineno}: {tag!r} line needs {k} values")
            if tag == "c":
                scopes.append(vals)
                nogoods.append(current := set())
                continue
            g_values[ln] = vals
        size = len(current)
        current.add(vals)
        if len(current) == size:
            raise InstanceFormatError(f"line {lineno}: duplicate nogood {vals}")

    if len(scopes) != m:
        raise InstanceFormatError(f"declared m={m} but found {len(scopes)} constraints")
    inst = Instance(n, d, tuple(Constraint(scope, frozenset(ngs))
                                for scope, ngs in zip(scopes, nogoods)))
    inst.validate()
    if k > n:  # when m > 0, validate() has refused the k-variable scopes already
        raise InstanceFormatError(f"line {size_line}: arity k={k} exceeds variable count n={n}")
    return inst
