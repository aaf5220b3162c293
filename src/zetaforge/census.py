"""Brute-force census of closed geodesics and prime classes.

Walks are sequences of darts: an undirected edge contributes two mutually
inverse darts, a loop two inverse darts at the same node, an arrow a
single dart with no inverse.  A closed walk of length m is backtrackless
and tailless when no dart is followed (cyclically, wrap-around included)
by its own inverse.  Closed-walk counts N_m are traces of powers of the
dart transition matrix, stepped as packed columns of big ints.  Prime
classes are grouped under cyclic rotation only, so a cycle and its
reversal are distinct classes.

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

A node word[:t] counts its own closing darts and has R = horizon - 1 - t
levels below it.  While R > t its children are visited.  Once R <= t,
from depth horizon // 2 on, the subtrees of its children above the floor
are counted from tables, and only the one child equal to the floor is
visited, so no Lyndon word longer than about half the horizon is ever
extended.  A child above the floor is a Lyndon word, so its own floor is
d = word[0], the first dart.  Below it, a dart above d again makes a
Lyndon word, and a dart equal to d starts a run that repeats the word
from its start, with floors word[1], word[2], ...  Fix d and let S f(x)
be the sum of f(e) over the successors e of x above d.  The count j
levels below a Lyndon word that ends in e is

    V_j(e) = A_j(e) + sum over i < j of W_i * H_{j-1-i}(e),

where A_j = S^j(closings above d), H_j = S^j([d follows x]), and W_i is
the count i levels below the first dart of such a run.  W_i depends on
word[:i + 2] alone, and R <= t is what fixes every letter it needs.  Per
first dart, the A_j and H_j with j < (horizon - 1) // 2 are packed into
one int per dart, a fixed-width slot per level, and built only where
they are read: level j over the darts that words from d reach within
horizon - 2 - j steps.  Their suffix sums over each successor list turn
a run of children into one table read.  The reads are summed per depth
below each prefix word[:(horizon - 1) // 2], and that prefix's W, kept
along the path as it grows, is applied once per prefix.  No class is
stored.

The counts are checked before they are returned: sum over d | m of
d * pi(d) must equal N_m for every m (a CensusError otherwise).  This
module is deliberately independent of the determinant machinery: it is
the oracle that the zeta-derived series is checked against.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from math import gcd

from .graphs import MixedGraph, _Frozen, _is_int

HORIZON_LIMIT = 12


class CensusError(RuntimeError):
    """Inconsistent census state or unusable request."""


class CensusLimitError(CensusError):
    """Requested horizon beyond the enumeration guard."""


class Dart(_Frozen):
    def __init__(self, id: int, tail: int, head: int, inverse: int | None):
        self.__dict__.update(id=id, tail=tail, head=head, inverse=inverse)


class PrimeCensus(_Frozen):
    """closed_counts[m - 1] counts the closed walks of length m and
    prime_counts[m - 1] the primitive rotation classes; delta is the gcd
    of the lengths with primes, 0 if none."""

    def __init__(self, horizon: int, closed_counts: list[int],
                 prime_counts: list[int], delta: int):
        self.__dict__.update(horizon=horizon, closed_counts=closed_counts,
                             prime_counts=prime_counts, delta=delta)


def build_darts(g: MixedGraph) -> list[Dart]:
    """Two mutually inverse darts per edge (a loop's both at its node),
    then one dart with no inverse per arrow, never a loop."""
    darts: list[Dart] = []
    for i, j in g.edges:
        a = len(darts)
        darts.append(Dart(a, i, j, a + 1))
        darts.append(Dart(a + 1, j, i, a))
    for i, j in g.arrows:
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
    if not _is_int(horizon):
        raise TypeError(f"horizon {horizon!r} is not an int")
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
    """Lyndon closed walks of each length 1..horizon: one per prime class.

    Every prenecklace node down to depth horizon // 2 is visited, and
    below it only the children equal to the floor; the other subtrees are
    counted from tables built per first dart (see the module docstring).
    """
    counts = [0] * horizon
    word = [0] * horizon
    size = len(darts)
    heads = [x.head for x in darts]
    levels = (horizon - 1) // 2   # the most levels a node counts: R <= t
    low = horizon // 2            # the least depth t with R <= t
    # a slot of w bits holds a count of Lyndon walks up to the horizon
    # (N_m <= size * s**(horizon - 1), s the most successors of a dart),
    # and each slot of a table entry or of a per-prefix sum of them (the
    # walks of at most horizon - 1 darts below the prefix); the sums over
    # all prefixes may overflow only in slots that no read needs, and a
    # carry only moves up
    top = max(map(len, succ), default=0)
    w = max(1, (size * top ** (horizon - 1)).bit_length())
    mask = (1 << w) - 1
    shift = levels * w            # slots 0..levels-1: A_j; then H_j
    mask_a = (1 << shift) - 1
    keep = mask_a >> w | (mask_a >> 2 * w) << shift
    acc = [0] * horizon           # [t]: table reads at depth t, this prefix
    total = [0] * horizon         # [t]: the same with W applied, all prefixes
    # W_i sums, over 1 <= s <= i, slot i - s of the table read at
    # word[s - 1] above word[s] (its H part weighted by the W below i),
    # plus the closings of word[i] above word[i + 1].  Fixed by word[:t],
    # t <= levels: weights[t] holds W_i, i < t - 1, at slot i + 1, and
    # reads_a[t] and reads_h[t] the A and H parts of those reads, s < t,
    # at slot s
    weights = [0] * (levels + 1)
    reads_a = [0] * (levels + 1)
    reads_h = [0] * (levels + 1)

    def extend(t: int, p: int):
        # word[:t] is a prenecklace walk with FKM period p; a next dart
        # above word[t - p] makes a Lyndon word of length t + 1
        last = word[t - 1]
        floor = word[t - p]
        ends = closing[last]
        counts[t] += len(ends) - bisect_right(ends, floor)
        nxt = succ[last]
        if t < low:
            for e in nxt:
                if e >= floor:
                    word[t] = e
                    if t < levels:
                        grow(t)
                    extend(t + 1, p if e == floor else t + 1)
                    if t + 1 == levels:
                        settle()
        elif t + 1 < horizon:
            # the children above the floor, counted to the horizon; the
            # child equal to the floor keeps p and is visited
            k = bisect_right(nxt, floor)
            acc[t] += table[last][k]
            if k and nxt[k - 1] == floor:
                word[t] = floor
                extend(t + 1, p)

    def grow(t: int):
        # word[t] is set: W_{t-1}, and the read at word[t - 1] above word[t]
        last, e = word[t - 1], word[t]
        ends = closing[last]
        weight = weights[t]
        sums = (reads_a[t] + reads_h[t] * weight) >> (t - 1) * w & mask
        closings = len(ends) - bisect_right(ends, e)
        weights[t + 1] = weight + (sums + closings << t * w)
        if t + 1 < levels:
            v = table[last][bisect_right(succ[last], e)]
            reads_a[t + 1] = reads_a[t] + ((v & mask_a) << t * w)
            reads_h[t + 1] = reads_h[t] + (v >> shift << t * w)

    def settle():
        # the subtree below word[:levels] is searched: weight its H reads
        # (those of the last level, R = 1, are never read)
        weight = weights[levels]
        for t in range(low, horizon - 2):
            v = acc[t]
            total[t] += (v & mask_a) + (v >> shift) * weight
            acc[t] = 0

    # per-dart state, allocated once and written only over the darts the
    # first dart reaches (its order below), where it is also read; fresh
    # is reset over them after each first dart, and the sums over
    # successors find level 0 at the smaller darts, each of which was set
    # to 0 as a first dart and never reached again
    fresh = [True] * size
    closing = [None] * size
    level = [0] * size
    base = [0] * size
    table = [None] * size
    get = level.__getitem__
    for d in darts:
        # a single dart closes when it is a loop (never its own inverse)
        if d.head == d.tail:
            counts[0] += 1
        if horizon == 1:
            continue
        # a word from d holds darts no smaller than d, its i-th dart i
        # steps from d; order lists the darts so reached, d first, by
        # steps, and reached[r] counts those within r steps
        a = d.id
        order = [a]
        reached = [1]
        fresh[a] = False  # for good: the first darts only grow
        start = 0
        for _ in range(horizon - 2):
            for x in order[start:]:
                for e in succ[x]:
                    if fresh[e]:
                        fresh[e] = False
                        order.append(e)
            start = reached[-1]
            reached.append(len(order))
        # closing[x]: successors of x that close a walk begun by d;
        # level[x]: A_j(x) at slot j and H_j(x) at slot levels + j, with
        # A_0(x) the closings above d, H_0(x) whether d follows x, and
        # A_j, H_j their sums over the successors above d, built where
        # read: level j within horizon - 2 - j steps
        for x in order:
            ends = closing[x] = [e for e in succ[x] if heads[e] == d.tail
                                 and e != d.inverse]
            level[x] = base[x] = (len(ends) - bisect_right(ends, a)
                                  + ((a in succ[x]) << shift))
        # d and the darts below it, never reached, are 0: a sum over all
        # successors is then a sum over those above d.  Pass j makes slot
        # j exact within horizon - 2 - j steps; reading an entry that the
        # pass already raised only makes more slots exact, and keep drops
        # the top slot of A and of H, which would spill over
        level[a] = 0
        for j in range(1, levels):
            for x in order[1:reached[horizon - 2 - j]]:
                level[x] = base[x] + ((sum(map(get, succ[x])) & keep) << w)
        # table[x][k]: the sum of level over succ[x][k:]
        if levels:
            for x in order[:reached[horizon - 3]]:
                sums = [*accumulate(map(get, reversed(succ[x])), initial=0)]
                sums.reverse()
                table[x] = sums
        word[0] = a
        extend(1, 1)
        for x in order[1:]:
            fresh[x] = True
    # the reads of the last level (R = 1) need no W and stay in acc
    for t in range(low, horizon - 1):
        v = total[t] + acc[t]
        for j in range(horizon - 1 - t):
            counts[t + 1 + j] += v >> j * w & mask
    return counts


def enumerate_primes(g: MixedGraph, horizon: int) -> PrimeCensus:
    """Count primitive closed-walk classes per length by explicit search.

    Classes are rotations only; orientation reversal is not identified.
    Each class is counted once, as its Lyndon rotation.  The derived
    closed-walk counts are cross-checked against the transition-matrix
    counts before returning.
    """
    closed = count_closed_paths(g, horizon)  # checks the horizon first
    darts = build_darts(g)
    prime_counts = _lyndon_closed_walks(darts, _successors(darts), horizon)
    for m in range(1, horizon + 1):
        derived = sum(d * prime_counts[d - 1]
                      for d in range(1, m + 1) if m % d == 0)
        if derived != closed[m - 1]:
            raise CensusError(
                f"closed-walk count mismatch at length {m}: "
                f"matrix {closed[m - 1]}, classes {derived}")
    delta = gcd(*(m for m, c in enumerate(prime_counts, 1) if c))
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
