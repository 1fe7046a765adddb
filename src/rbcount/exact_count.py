"""Exact solution counting and threshold decisions.

Counts are Python integers, so they stay exact at any magnitude, and the
threshold test count**divisor >= d**n is pure integer arithmetic - no float
ever touches a decision.

Two counters are provided.  ``count_backtrack`` is the one every command,
sweep and table counts with: a forward-checking search in a static
variable order, walked one depth at a time.  Each depth holds its distinct
search keys - the domains of the variables still in play - with the number
of ways of reaching each, so states with equal keys are expanded once (the
component-caching idea of #SAT solvers such as Cachet and sharpSAT, walked
breadth first as a BDD/ZDD is built).  Keys that agree on the fields a
depth's moves read form a group, and each group's moves are built once.
``count_brute`` enumerates the full assignment space; it is the oracle that
the tests and the benchmark's checks hold ``count_backtrack`` to.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .rb_model import Instance, check_cap


class CountResult(NamedTuple):
    """A count and what it took: nodes_visited is the assignments enumerated
    (brute) or the value assignments tried plus one for the root
    (backtrack); memo_states is the number of distinct search keys held
    across the depths (backtrack; 0 for brute)."""

    count: int
    nodes_visited: int
    method: str  # "brute" | "backtrack"
    memo_states: int = 0


def count_brute(instance: Instance) -> CountResult:
    """Count solutions by enumerating all d^n assignments, once check_cap
    passes them.  Deliberately unclever so it can serve as an independent
    oracle for count_backtrack.
    """
    n, d = instance.n, instance.d
    check_cap(d, "assignments", n)
    space = d ** n
    checks = [(c.scope, c.nogoods) for c in instance.constraints]
    count = 0
    for assignment in itertools.product(range(d), repeat=n):
        for scope, nogoods in checks:
            if tuple(assignment[v] for v in scope) in nogoods:
                break
        else:
            count += 1
    return CountResult(count=count, nodes_visited=space, method="brute")


def _static_order(instance: Instance) -> list[int]:
    # Descending constraint degree, ties broken by ascending variable index:
    # a reverse sort is still stable, so equal degrees keep their order.
    deg = [0] * instance.n
    for c in instance.constraints:
        for v in c.scope:
            deg[v] += 1
    return sorted(range(instance.n), key=deg.__getitem__, reverse=True)


def count_backtrack(instance: Instance) -> CountResult:
    """Count solutions by forward-checking search, one depth at a time.

    Variables are assigned in a static order (descending constraint degree,
    ties by index).  The search state is one int holding every variable's
    domain as a d-bit field, one field per depth; an assigned variable's
    field is the one-hot bit of its value.  A constraint fires at the
    second-deepest depth of its scope and prunes the deepest variable's
    field: a binary one through a precomputed AND-mask per (depth, value),
    a wider one through a dict keyed on the assigned fields of its other
    variables.  A branch ends as soon as any field is empty.  A state of more
    than check_cap's cap of bits is refused before anything is built.

    The field of depth t sits at bits (n-1-t)*d, so the fields a depth still
    holds are the low bits of its keys, and the group and wide-table keys are
    shifted down to put the branched field at bit 0.  A small int hashes to
    itself and a dict takes its first slot from the hash's low bits, so keys
    that agreed there would all walk one probe chain.

    A variable whose neighbours are all assigned is never branched on: its
    field can no longer change, so it contributes its popcount as a factor.
    After a prefix of the order is assigned, the number of completions then
    depends only on the live fields (unassigned variables with an unassigned
    neighbour) and, for arity >= 3, on the assigned values of constraints
    that still have two or more unassigned variables.  The search walks the
    branching depths in order, holding each distinct key of a depth once with
    the number of ways of reaching it, as #SAT component caching does.  It
    does not recurse, and it keeps only the current and the next depth.

    At each depth, the keys are grouped on the field being branched and the
    fields its wide tables read.  A group's moves - one AND-mask per value,
    values with equal masks merged into one weighted move - are built once,
    so a key then costs one AND, its final fields' popcounts and one dict
    add per move.  A child may have an empty field or 0 ways; the next depth
    drops it when it reads the key, once per key rather than once per move.
    The last depth builds no keys: it adds up each key's value.

    nodes_visited is the number of value assignments tried plus one for the
    root; memo_states is the number of distinct keys held across the depths,
    the states a memoised depth-first search would cache.  Scopes must have
    arity >= 2.
    """
    n, d = instance.n, instance.d
    check_cap(n * d, "state bits")
    order = _static_order(instance)
    depth_of = [0] * n
    for j, v in enumerate(order):
        depth_of[v] = j
    full = (1 << d) - 1
    top = n - 1  # field t sits at bits (top - t) * d
    ones = (1 << n * d) - 1
    # The lowest and highest bit of every field: (s - low) & ~s & high is
    # nonzero exactly when some field of s is empty.  ones = full * low, as
    # 2^(nd) - 1 = (2^d - 1)(1 + 2^d + ... + 2^((n-1)d)); a sum would be quadratic in n.
    low = ones // full
    high = low << (d - 1)

    # cut[j][v]: the bits of deeper fields that binary constraints firing at
    # depth j clear when depth j takes the value v.
    cut = [[0] * d for _ in range(n)]
    tables: list[list[tuple[int, dict[int, int]]]] = [[] for _ in range(n)]
    last_nb = [-1] * n  # deepest neighbour of each depth
    key_mask = [0] * n
    for c in instance.constraints:
        if len(c.scope) == 2:
            a, b = depth_of[c.scope[0]], depth_of[c.scope[1]]
            fire, last = (a, b) if a < b else (b, a)
            last_nb[fire] = max(last_nb[fire], last)
            last_nb[last] = max(last_nb[last], fire)
            # Nogood (x, y) bans the deeper variable's value at bit
            # (top-last)*d+value of the shallower variable's row.
            row, base = cut[fire], (top - last) * d
            if a < b:
                for x, y in c.nogoods:
                    row[x] |= 1 << base + y
            else:
                for x, y in c.nogoods:
                    row[y] |= 1 << base + x
            continue
        depths = [depth_of[v] for v in c.scope]
        *src, tgt = sorted(range(len(depths)), key=depths.__getitem__)
        fire, last = depths[src[-1]], depths[tgt]
        for x in depths:
            last_nb[x] = max(last_nb[x], fire if x == last else last)
        # The table's keys hold its sources shifted down to put field fire at
        # bit 0, and so does proj.
        proj = 0
        for i in src:
            proj |= full << (fire - depths[i]) * d
        table: dict[int, int] = {}
        for ng in c.nogoods:
            key = 0
            for i in src:
                key |= 1 << ((fire - depths[i]) * d + ng[i])
            table[key] = table.get(key, ones) & ~(1 << ((top - last) * d + ng[tgt]))
        tables[fire].append((proj, table))
        # Until it fires, its assigned values steer later pruning.
        for i in src:
            for j in range(depths[i] + 1, fire + 1):
                key_mask[j] |= full << (top - depths[i]) * d

    branching = [j for j in range(n) if last_nb[j] > j]
    finals: list[list[int]] = [[] for _ in range(n)]
    ends = [0] * n  # ends[j]: the fields that are in the key up to depth j
    for t in range(n):
        # Field t is final once its deepest neighbour is assigned, and it is
        # in the key while t is unassigned and has an unassigned neighbour.
        if 0 <= last_nb[t] < t:
            finals[last_nb[t]].append((top - t) * d)
        if last_nb[t] >= 0:
            ends[min(t, last_nb[t])] |= full << (top - t) * d
    suffix = 0
    for j in range(n - 1, -1, -1):
        suffix |= ends[j]
        key_mask[j] |= suffix
    if not branching:
        return CountResult(count=d ** n, nodes_visited=1, method="backtrack")

    # layer maps each distinct key reached at a branching depth to the number
    # of ways of reaching it, with final fields' popcounts multiplied in.  A
    # key's completions depend on the key alone, so a depth-first search
    # memoised on the key would cache exactly these keys.  A key may arrive
    # with an empty field or with 0 ways; the depth that reads it drops it
    # and does not count it.  That check is enough: a child loses only field
    # j, which holds one bit, final fields, where an empty one gives 0 ways,
    # and wide-table sources, which are assigned.
    layer = {ones & key_mask[branching[0]]: 1}
    nodes, states, total = 1, 0, 0
    for j, nxt in zip(branching, branching[1:] + [n]):
        shift, fin, checks = (top - j) * d, finals[j], tables[j]
        # A key holds only the fields of key_mask[j]; the rest are zero in it.
        live_low = low & key_mask[j]
        live_high = high & key_mask[j]
        union = 0
        for proj, _ in checks:
            union |= proj
        # Keys that agree on field j and on the fields the wide tables read
        # make the same moves, so each group's moves are built once.  A group
        # is keyed on them shifted down to put field j at bit 0.
        groups: dict[int, list[tuple[int, int]]] = {}
        read = full | union
        for key, ways in layer.items():
            if ways and not (key - live_low) & ~key & live_high:
                groups.setdefault(key >> shift & read, []).append((key, ways))
                states += 1
        layer.clear()  # the groups hold its entries now
        if not groups:
            break
        next_mask = key_mask[nxt] if nxt < n else 0
        # A move keeps the fields of the next key and the final fields, whose
        # popcounts are taken before the next key drops them.
        keep = next_mask
        for f in fin:
            keep |= full << f
        # choice[v]: the AND-mask for giving depth j the value v; it narrows
        # field j to one bit and applies cut[j][v].  Values whose masks agree
        # on the kept fields merge into one move weighted by their number.
        choice = [keep & (ones & ~(full << shift | c) | 1 << shift + v)
                  for v, c in enumerate(cut[j])]
        # The wide tables firing here clear only deeper fields, so they apply
        # in any order, as one mask keyed on the fields they all read, cached
        # for the depth.
        wide: dict[int, int] = {}
        out: dict[int, int] = {}
        while groups:
            g, group = groups.popitem()  # freed as the next depth's keys grow
            field = g & full
            nodes += field.bit_count() * len(group)
            sources = g & union & ~full
            shared: dict[int, int] = {}
            rest = field
            while rest:
                bit = rest & -rest
                rest ^= bit
                mask = choice[bit.bit_length() - 1]
                if checks:
                    u = sources | bit
                    m = wide.get(u)
                    if m is None:
                        m = ones
                        for proj, table in checks:
                            m &= table.get(u & proj, ones)
                        wide[u] = m
                    mask &= m
                shared[mask] = shared.get(mask, 0) + 1
            moves = list(shared.items())
            # After that, a key costs one AND per move, the final fields'
            # popcounts and, before the last depth, one dict add.
            if nxt == n:
                # At the last depth a key holds field j, the wide tables'
                # sources and the final fields, so the popcounts' product is 0
                # exactly when a move empties a field: no key is built, and
                # only the value is left.
                for key, ways_in in group:
                    sub = 0
                    for mask, w in moves:
                        s = key & mask
                        for f in fin:
                            w *= (s >> f & full).bit_count()
                        sub += w
                    total += ways_in * sub
            elif not fin:
                for key, ways_in in group:
                    for mask, w in moves:
                        s = key & mask
                        out[s] = out.get(s, 0) + ways_in * w
            elif len(fin) == 1:  # the common case, without the loop over fin
                f = fin[0]
                for key, ways_in in group:
                    for mask, w in moves:
                        s = key & mask
                        ways = ways_in * w * (s >> f & full).bit_count()
                        s &= next_mask
                        out[s] = out.get(s, 0) + ways
            else:
                for key, ways_in in group:
                    for mask, w in moves:
                        s = key & mask
                        ways = ways_in * w
                        for f in fin:
                            ways *= (s >> f & full).bit_count()
                        s &= next_mask
                        out[s] = out.get(s, 0) + ways
        layer = out
    isolated = last_nb.count(-1)
    return CountResult(count=d ** isolated * total, nodes_visited=nodes,
                       method="backtrack", memo_states=states)


def check_decision_divisor(divisor: int) -> None:
    """Raise ValueError unless divisor is an integer >= 2, as decisions need."""
    if not isinstance(divisor, int) or divisor < 2:
        raise ValueError(f"divisor must be an integer >= 2, got {divisor}")


def decide_from_count(count: int, d: int, n: int, divisor: int = 2) -> bool:
    """Threshold decision for an already-computed count: count**divisor >= d**n,
    in exact integers only."""
    check_decision_divisor(divisor)
    if count < 0:
        raise ValueError("count must be >= 0")
    space = d ** n
    # A count >= 2 raised to space.bit_length() already exceeds space, so a
    # larger exponent cannot change the answer; it only costs time.
    return count ** min(divisor, space.bit_length()) >= space


def int_nth_root(x: int, t: int) -> int:
    """floor(x ** (1/t)) by Newton iteration on integers."""
    if x < 0 or t < 1:
        raise ValueError("need x >= 0 and t >= 1")
    if x == 0:
        return 0
    t = min(t, x.bit_length())  # 2**t > x for larger t, so the root stays 1
    if t == 1:
        return x
    g = 1 << ((x.bit_length() + t - 1) // t)
    while True:
        ng = ((t - 1) * g + x // g ** (t - 1)) // t
        if ng >= g:
            break
        g = ng
    while g ** t > x:
        g -= 1
    while (g + 1) ** t <= x:
        g += 1
    return g


def threshold_ceiling(d: int, n: int, divisor: int = 2) -> int:
    """Smallest integer count meeting the threshold: ceil(d^(n/divisor)), the
    least count for which decide_from_count answers YES."""
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    check_decision_divisor(divisor)
    space = d ** n
    root = int_nth_root(space, divisor)
    return root if root ** divisor == space else root + 1
