"""Brute-force census of closed geodesics and prime classes.

Walks are sequences of darts: an undirected edge contributes two mutually
inverse darts, a loop two inverse darts at the same node, an arrow a
single dart with no inverse.  A closed walk of length m is backtrackless
and tailless when no dart is followed (cyclically, wrap-around included)
by its own inverse.  Closed-walk counts N_m are traces of powers of the
dart transition matrix, stepped as packed columns of big ints.  Prime classes are grouped under cyclic rotation
only, so a cycle and its reversal are distinct classes.

A prime class of length m holds m distinct rotations of a primitive
closed walk, and exactly one of them, read as a word of dart ids, is a
Lyndon word (strictly smaller than each of its proper rotations).  The
census counts those words in one depth-first pass over all lengths,
extending a single dart word along the successor lists and carrying the
period p of the Fredricksen-Kessler-Maiorana prenecklace generator
(Cattell, Ruskey, Sawada, Serra & Miers 2000): a next dart below the
floor word[t - p] cannot lead to a least rotation and is pruned, one
equal to it keeps p, and one above it makes the word Lyndon (p = t + 1).
A Lyndon word is counted when its last dart ends at the first dart's
tail and is not the first dart's inverse.

The last two levels of the search, the words one and two darts short
of the horizon, are counted, not visited: such words would only count
their closing darts.  A parent has at most one child equal to its floor,
visited (or, on the last level, counted) on its own, and a run of
children above it.  Each of those is a Lyndon word, so its floor is
word[0] = d, the first dart, and its count (closing darts above d)
depends on the child alone.  A grandchild through such a child is either
above d, again Lyndon with floor d, or equal to d; the latter keeps the
child's period, so its floor is word[1] and its count the closings of d
above word[1].  Per first dart, tables over the successor lists hold
these counts and their suffix sums, so each run of children costs two
reads of those sums two levels above the horizon and one read one level
above it.  The tables are built only for the darts that words from the
first dart reach.  No class is stored.

The counts are checked before they are returned: sum over d | m of
d * pi(d) must equal N_m for every m (a CensusError otherwise).  This
module is deliberately independent of the determinant machinery: it is
the oracle that the zeta-derived series is checked against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import gcd

from .graphs import MixedGraph

HORIZON_LIMIT = 12


class CensusError(RuntimeError):
    """Inconsistent census state or unusable request."""


class CensusLimitError(CensusError):
    """Requested horizon beyond the enumeration guard."""


@dataclass(frozen=True)
class Dart:
    id: int
    tail: int
    head: int
    inverse: int | None


@dataclass(frozen=True)
class PrimeCensus:
    horizon: int
    closed_counts: list[int]   # index m-1: closed walks of length m
    prime_counts: list[int]    # index m-1: primitive rotation classes
    delta: int                 # gcd of lengths with primes, 0 if none


def build_darts(g: MixedGraph) -> list[Dart]:
    darts: list[Dart] = []
    for i, j in g.edges:
        a = len(darts)
        darts.append(Dart(a, i, j, a + 1))
        darts.append(Dart(a + 1, j, i, a))
    for i, j in g.arrows:
        if i == j:
            raise CensusError(f"arrow self-loop at node {i}; normalize() first")
        darts.append(Dart(len(darts), i, j, None))
    return darts


def _successors(darts: list[Dart]) -> list[list[int]]:
    """Darts that may follow each dart, in increasing id order."""
    by_tail: dict[int, list[int]] = {}
    for d in darts:
        by_tail.setdefault(d.tail, []).append(d.id)
    return [[e for e in by_tail.get(d.head, []) if e != d.inverse]
            for d in darts]


def _check_horizon(horizon: int):
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if horizon > HORIZON_LIMIT:
        raise CensusLimitError(
            f"horizon {horizon} beyond the enumeration guard "
            f"({HORIZON_LIMIT})")


def count_closed_paths(g: MixedGraph, horizon: int) -> list[int]:
    """Closed backtrackless tailless walk counts N_1..N_horizon, start
    position distinguished.  Exact integers via transition-matrix traces.

    Column f of T^m is one int with a slot of w bits per start dart d,
    holding the number of walks of m darts from d to f.  The m - 1 darts
    after d are each one of at most s successors, and the last is f, so
    no slot exceeds s**(horizon - 1); w = bits of that bound (at least
    1) holds every slot without a carry.  A step sums the packed columns
    of f's predecessors, and N_m is the sum over f of slot f of column f.
    """
    _check_horizon(horizon)
    succ = _successors(build_darts(g))
    size = len(succ)
    pred: list[list[int]] = [[] for _ in range(size)]
    for e, nxt in enumerate(succ):
        for f in nxt:
            pred[f].append(e)
    top = max(map(len, succ), default=0)
    w = max(1, (top ** (horizon - 1)).bit_length())
    mask = (1 << w) - 1
    cols = [1 << w * f for f in range(size)]
    counts = []
    for _ in range(horizon):
        cols = [sum([cols[e] for e in pr]) for pr in pred]
        counts.append(sum(c >> w * f & mask for f, c in enumerate(cols)))
    return counts


def _lyndon_closed_walks(darts: list[Dart], succ: list[list[int]],
                         horizon: int) -> list[int]:
    """Lyndon closed walks of each length 1..horizon: one per prime class."""
    counts = [0] * horizon
    word = [0] * horizon

    def extend(t: int, p: int):
        # word[:t] is a prenecklace walk with FKM period p; a next dart
        # above word[t - p] makes a Lyndon word of length t + 1
        last = word[t - 1]
        floor = word[t - p]
        ends = closing[last]
        counts[t] += len(ends) - bisect_right(ends, floor)
        nxt = succ[last]
        if t + 3 == horizon and t > 1:
            # children above the floor are Lyndon with floor word[0]:
            # each counts above[e], and its grandchildren kids[e] above
            # word[0] plus, through a grandchild equal to word[0], which
            # keeps the period and so has floor word[1], cw1[word[1]];
            # the child equal to the floor keeps p and is visited
            k = bisect_right(nxt, floor)
            counts[t + 1] += suffix[last][k]
            counts[t + 2] += (suffix2[last][k]
                              + cw1[word[1]] * suffix_d[last][k])
            if k and nxt[k - 1] == floor:
                word[t] = floor
                extend(t + 1, p)
        elif t + 2 < horizon:
            for e in nxt:
                if e >= floor:
                    word[t] = e
                    extend(t + 1, p if e == floor else t + 1)
        elif t + 2 == horizon:
            # the children would only count their own closings: a child
            # above the floor is Lyndon, so its floor is word[0] and its
            # count above[e], summed in one read of the suffix sums; the
            # child equal to the floor keeps p
            k = bisect_right(nxt, floor)
            total = suffix[last][k]
            if k and nxt[k - 1] == floor:
                word[t] = floor
                ends = closing[floor]
                total += len(ends) - bisect_right(ends, word[t + 1 - p])
            counts[t + 1] += total

    size = len(darts)
    heads = [x.head for x in darts]

    def suffix_sums(values, reach):
        # [x][k]: the sum of values[e] over e in succ[x][k:], x in reach
        table = [None] * size
        for x in reach:
            sums = accumulate(map(values.__getitem__, reversed(succ[x])),
                              initial=0)
            table[x] = [*sums][::-1]
        return table

    for d in darts:
        # a single dart closes when it is a loop (never its own inverse)
        if d.head == d.tail:
            counts[0] += 1
        if horizon == 1:
            continue
        # a word from d holds darts no smaller than d, its i-th dart i
        # steps from d.  The tables are built only for darts so reached
        # within horizon - 2 steps: the search reads closing within
        # horizon - 2 steps, suffix and kids within horizon - 3 and
        # suffix2 and suffix_d within horizon - 4, and a suffix sum at x
        # reads its table at x's successors, one step further
        reach = frontier = {d.id}
        for _ in range(horizon - 2):
            frontier = {e for x in frontier for e in succ[x]
                        if e > d.id} - reach
            reach = reach | frontier
        # closing[x]: successors of x that close a walk begun by d;
        # above[x]: those above d, the count of a Lyndon word ending in x
        closing = [None] * size
        above = [0] * size
        for x in reach:
            ends = closing[x] = [e for e in succ[x] if heads[e] == d.tail
                                 and e != d.inverse]
            above[x] = len(ends) - bisect_right(ends, d.id)
        suffix = suffix_sums(above, reach)
        if horizon > 4:
            # kids[x]: the last-level count below a Lyndon word ending in
            # x, its successors above d; has_d[x]: d follows x; cw1[w]:
            # closings of d above w
            kids = [0] * size
            has_d = [0] * size
            for x in reach:
                kids[x] = suffix[x][bisect_right(succ[x], d.id)]
                has_d[x] = d.id in succ[x]
            suffix2 = suffix_sums(kids, reach)
            suffix_d = suffix_sums(has_d, reach)
            ends = closing[d.id]
            cw1 = [len(ends) - bisect_right(ends, w) for w in range(size)]
        word[0] = d.id
        extend(1, 1)
    return counts


def enumerate_primes(g: MixedGraph, horizon: int) -> PrimeCensus:
    """Count primitive closed-walk classes per length by explicit search.

    Classes are rotations only; orientation reversal is not identified.
    Each class is counted once, as its Lyndon rotation.  The derived
    closed-walk counts are cross-checked against the transition-matrix
    counts before returning.
    """
    _check_horizon(horizon)
    darts = build_darts(g)
    prime_counts = _lyndon_closed_walks(darts, _successors(darts), horizon)
    closed = count_closed_paths(g, horizon)
    for m in range(1, horizon + 1):
        derived = sum(d * prime_counts[d - 1]
                      for d in range(1, m + 1) if m % d == 0)
        if derived != closed[m - 1]:
            raise CensusError(
                f"closed-walk count mismatch at length {m}: "
                f"matrix {closed[m - 1]}, classes {derived}")
    lengths = [m for m in range(1, horizon + 1) if prime_counts[m - 1]]
    delta = 0
    for m in lengths:
        delta = gcd(delta, m)
    return PrimeCensus(horizon, closed, prime_counts, delta)


def pnt_ratios(census: PrimeCensus, r_g: float) -> dict[int, float]:
    """Diagnostic ratios pi(m) * m * R^m / delta for lengths divisible by
    delta; the prime-count asymptotics drive these toward 1 on expanders."""
    if census.delta == 0:
        raise CensusError("graph has no primes within the horizon")
    out = {}
    for m in range(1, census.horizon + 1):
        if m % census.delta == 0:
            out[m] = (census.prime_counts[m - 1] * m * r_g ** m
                      / census.delta)
    return out
