"""Prime classes counted by an explicit Lyndon-word search: the test
oracle for census.enumerate_primes, which takes them from the traces.

A prime class of length m holds m distinct rotations of a primitive
closed walk, and exactly one of them, read as a word of dart ids, is a
Lyndon word (strictly smaller than each of its proper rotations).  The
search counts those words in one depth-first pass over all lengths,
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

The search shares nothing with the traces but the darts of build_darts, so
its counts check the Moebius inversion of the traces.
"""

from bisect import bisect_right
from itertools import accumulate

from zetaforge.census import build_darts


def _successors(darts):
    """Darts that may follow each dart, in increasing id order."""
    by_tail = {}
    for d in darts:
        by_tail.setdefault(d.tail, []).append(d.id)
    return [[e for e in by_tail.get(d.head, []) if e != d.inverse]
            for d in darts]


def lyndon_closed_walks(darts, succ, horizon):
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


def lyndon_prime_counts(g, horizon):
    """pi(1)..pi(horizon) of the graph g by the search."""
    darts = build_darts(g)
    return lyndon_closed_walks(darts, _successors(darts), horizon)
