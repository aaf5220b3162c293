"""Exact determinants of matrices with integer-polynomial entries.

A matrix is held as one ``{column: coefficient tuple}`` dict per row with
its nonzero entries only, so the work below follows the nonzeros, not
n**2.  ``det_poly`` and ``char_poly`` take dense rows or rows given as
mappings and pick one of two exact routes from the support pattern of
the matrix, before any arithmetic:

* a division-free expansion that sweeps the rows and memoizes on the set
  of used columns.  Once a column's last nonzero row is passed, every
  live state holds it, so the states differ only in the columns that are
  still "open" (nonzero in an earlier or the current row and in a later
  row).  A matrix whose open width never exceeds ``_SWEEP_WIDTH`` has at
  most 2**_SWEEP_WIDTH states per row, so banded and otherwise
  locally-connected matrices, long cycle graphs among them, keep few
  states; the cost is then in the state polynomials, whose degree grows
  with the rows swept.  Each state's sum of products goes to intpoly's
  slice kernel, which short products use;
* evaluation and interpolation for every wider matrix, at the points
  0, 1, ..., deg, with deg = sum d_i - n + nu a bound on the degree: d_i
  is the largest entry degree of row i, and nu the size of a maximum
  matching of the rows to the columns on the support of L, the matrix of
  the rows' z**d_i coefficients.  N(t) = diag(t**d_i) M(1/t) has
  N(0) = L, so det N = t**(sum d_i) det M(1/t) vanishes at t = 0 to order
  at least the nullity of L, and rank L <= nu.  Below 0, deg says that
  det M = 0.  The work is modulo one prime p = 2**e - c, the largest
  below 2**e (above _SEARCH_BITS bits, the least Mersenne prime
  2**q - 1 with q >= e), with 2**(e - 1) above both 2B and 2 deg: the
  first keeps the lift exact, the second the points distinct and
  invertible.  B is Hadamard's bound, the square root of the product
  over rows of the sum over the row's entries of the squared sum of
  each entry's absolute coefficients; Cauchy's estimate on the unit
  circle and Hadamard's inequality make it a bound on every coefficient
  of the determinant.  Each row is one Python int of n fixed-width
  slots, so an elimination step is a handful of big-int operations per
  row rather than one per entry.  The rows and columns are first sorted
  by their degree in the symmetric support, ties to the lowest index,
  which leaves little fill: a row whose entry in the column being
  eliminated is exactly 0 has multiplier 0 and only shifts.  The points
  are eliminated _BATCH at a time in lockstep.  At each step every point
  of the batch finds and folds its pivot, the first remaining row tested
  before the rest are scanned, and one modular inverse of the
  product of those pivots gives the inverse of each (Montgomery's trick);
  a point with no pivot has determinant 0 and leaves the batch.  The
  values are interpolated by Newton divided differences mod p, and each
  coefficient is read back from (-p/2, p/2).

Both are exact over Z[z]; they are property-tested against each other and
against cofactor expansion.  Entries must be ints or IntPolys, and an
int entry goes through IntPoly's constructor: a float, a Fraction or a
bool raises TypeError instead of being truncated or read as 0 or 1.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cache
from math import isqrt

from .graphs import _is_int
from .intpoly import _MERSENNE_EXPONENTS, IntPoly, _addmul, _norm

_SWEEP_WIDTH = 11  # at most 2**11 sweep states per row
_BATCH = 16  # evaluation points the wide route eliminates in lockstep
_SEARCH_BITS = 1100  # the widest modulus found by a prime search


def _spans(rows, n):
    """The first and the last row in which each column is nonzero, n and
    -1 for an all-zero column."""
    first, last = [n] * n, [-1] * n
    for i, row in enumerate(rows):
        for c in row:
            if first[c] > i:
                first[c] = i
            last[c] = i
    return first, last


def _frontier_det(rows, n):
    """Determinant of the sparse rows by one sweep from the top: after
    each row, the map from each mask of the columns the rows so far can
    take to its signed sum of products, as a coefficient list.

    A row takes one free column c at the sign of the number of free
    columns below c.  A column in expiring[i] has no nonzero entry in the
    rows after row i, so every state from then on must hold it: a product
    that would miss one is never formed, and this is the only merge the
    states need."""
    if not all(rows):
        return ()  # a zero row
    _, last = _spans(rows, n)
    if min(last) < 0:
        return ()  # an all-zero column
    expiring = [0] * n
    for c, i in enumerate(last):
        expiring[i] |= 1 << c
    states = {0: [1]}
    for row, need in zip(rows, expiring):
        # (bit, mask of the columns below it, entry)
        entries = [(1 << c, (1 << c) - 1, e) for c, e in sorted(row.items())]
        nxt = {}
        for used, val in states.items():
            m = len(val)
            for bit, low, ent in entries:
                key = used | bit
                if key == used or key & need != need:
                    continue
                size = m + len(ent) - 1
                acc = nxt.get(key)
                fresh = acc is None  # nothing written yet: all zeros
                if fresh:
                    acc = nxt[key] = [0] * size
                elif len(acc) < size:
                    acc += [0] * (size - len(acc))
                _addmul(acc, val, ent, (low & ~used).bit_count() & 1, fresh)
        states = {}
        for key, acc in nxt.items():
            while acc and not acc[-1]:
                acc.pop()
            if acc:
                states[key] = acc
        if not states:
            break
    full = (1 << n) - 1
    if states.keys() - {full}:
        raise AssertionError("determinant sweep left unresolved columns")
    return tuple(states.get(full, ()))


def _open_width(rows, n):
    """Largest number of columns open after any row: nonzero at or above
    it and nonzero below it."""
    first, last = _spans(rows, n)
    delta = [0] * (n + 1)
    for f, t in zip(first, last):
        if f < t:
            delta[f] += 1
            delta[t] -= 1
    width = best = 0
    for d in delta:
        width += d
        best = max(best, width)
    return best


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(m):
    """Miller-Rabin to the first twelve prime bases: a proof below
    3.3e24, a strong probable-prime test above."""
    for a in _BASES:
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@cache
def _prime_below(e):
    """(p, c) with p = 2**q - c a prime and q >= e: up to _SEARCH_BITS
    bits, q = e and p the largest probable prime below 2**e, found by
    Miller-Rabin on each odd candidate downwards; beyond, where each test
    costs milliseconds, the least listed Mersenne prime 2**q - 1, and the
    search again past the list."""
    if e > _SEARCH_BITS:
        for q in _MERSENNE_EXPONENTS:
            if q >= e:
                return (1 << q) - 1, 1
    c = 1
    while not _is_probable_prime((1 << e) - c):
        c += 2
    return (1 << e) - c, c


def _degree_order(rows, n):
    """The rows and columns sorted by their degree in the symmetric
    support, the number of other indices they share a nonzero entry
    with, the lowest index on a tie."""
    pairs = {(min(i, j), max(i, j))
             for i, row in enumerate(rows) for j in row if j != i}
    degree = [0] * n
    for i, j in pairs:
        degree[i] += 1
        degree[j] += 1
    return sorted(range(n), key=degree.__getitem__)


def _matching_size(adjacent, n):
    """Size of a maximum matching of the rows to the n columns, with
    adjacent[i] the columns row i may take: one augmenting-path search
    per row, kept on an explicit stack, so hundreds of rows need no
    recursion."""
    owner = [-1] * n  # the row each column is matched to
    seen = [-1] * n  # the last row whose search reached each column
    size = 0
    for root, columns in enumerate(adjacent):
        # path[k] is the column taken by the row of stack[k]; the row of
        # stack[k + 1] is its owner, who must move on
        path, stack = [], [iter(columns)]
        while stack:
            for c in stack[-1]:
                if seen[c] != root:
                    seen[c] = root
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                continue
            path.append(c)
            if owner[c] < 0:
                row = root
                for col in path:
                    owner[col], row = row, owner[col]
                size += 1
                break
            stack.append(iter(adjacent[owner[c]]))
    return size


def _rows_at(packed, x):
    """The packed rows at the point x, by Horner's rule over each row's
    coefficient rows, the top degree first."""
    out = []
    for cs in packed:
        acc = cs[0]
        for a in cs[1:]:
            acc = acc * x + a
        out.append(acc)
    return out


def _interpolated_det(rows, n):
    """Determinant of the sparse rows by evaluation at the points
    0, 1, ..., deg modulo one prime p > max(2B, 2 deg), with B a bound on
    every coefficient and deg one on the degree, and Newton interpolation
    mod p lifted to (-p/2, p/2)."""
    if not all(rows):
        return ()  # a zero row
    lengths = [max(map(len, row.values())) for row in rows]
    # deg: with d_i the largest entry degree of row i and L the matrix of
    # the rows' z^d_i coefficients, N(t) = diag(t^d_i) M(1/t) has N(0) = L,
    # so det N = t^(sum d_i) det M(1/t) vanishes to order at least the
    # nullity of L at t = 0.  The rank of L is at most the size of a
    # maximum matching of its rows to its columns on its support, so
    # deg det M <= sum d_i - n + that size
    top_columns = [[j for j, ent in row.items() if len(ent) == top]
                   for row, top in zip(rows, lengths)]
    deg = sum(lengths) - 2 * n + _matching_size(top_columns, n)
    if deg < 0:
        return ()  # det M = 0
    # B: by Cauchy's estimate on |z| = 1 every coefficient of det M(z) is
    # at most max |det M(z)| there, and by Hadamard's inequality that is
    # at most the product over rows of their Euclidean norms, where
    # |m_ij(z)| <= ||m_ij||_1; so B = ceil(sqrt(prod_i sum_j ||m_ij||_1^2))
    square = 1
    for row in rows:
        square *= sum(sum(map(abs, ent)) ** 2 for ent in row.values())
    bound = isqrt(square - 1) + 1
    # p > 2**(e - 1) is above 2B, so the lift is exact, and above 2 deg,
    # so the points are distinct and 1, ..., deg invertible mod p
    e = max((2 * bound).bit_length() + 1, deg.bit_length() + 2)
    p, c = _prime_below(e)
    e = p.bit_length()  # p = 2**e - c: the folds below need this e
    # A row is n slots of w bits, slot j holding the entry of column j
    # plus a multiple of p, never negative.  A slot starts at most init
    # (Horner over residues at x <= deg), and each of the at most n - 1
    # updates before its row turns pivot adds f * (2p - t) <= 2p(p - 1),
    # so w bits hold it without a carry into the next slot.
    init = (p - 1) * sum(deg ** k for k in range(max(lengths)))
    w = (init + (n - 1) * 2 * p * (p - 1)).bit_length()
    # A fold maps each slot v to (v >> e) * c + (v mod 2**e), equal mod p
    # since 2**e = c (mod p); the pivot row is folded until every slot is
    # below 2p.  Two rounds suffice when init < 2p**2 and (4nc + 3)c <
    # 2**e, as for every graph matrix in the tests and the benchmark; the
    # loop counts the rounds in general.
    folds, v = 0, (1 << w) - 1
    while v >= 2 * p:
        v = (v >> e) * c + (1 << e) - 1
        folds += 1
    ones = sum(1 << (w * j) for j in range(n))
    low, high = ones * ((1 << e) - 1), ones * ((1 << (w - e)) - 1)
    mask = (1 << w) - 1
    # row k and slot k hold row and column order[k]: a simultaneous
    # permutation keeps the determinant, and sparse rows and columns first
    # leave more rows whose slot 0 is exactly 0 when their step comes
    order = _degree_order(rows, n)
    slot = [0] * n
    for k, j in enumerate(order):
        slot[j] = k
    packed = []  # per row, its coefficient rows from the top degree down
    for i in order:
        cs = [0] * lengths[i]
        for j, ent in rows[i].items():
            for k, a in enumerate(ent):
                cs[k] += a % p << w * slot[j]
        packed.append(cs[::-1])
    coef = []
    for start in range(0, deg + 1, _BATCH):
        # the points of one batch are eliminated in lockstep: all share
        # the width of their remaining rows, and one pow inverts all the
        # pivots of a step.  live holds [det so far, remaining rows] per
        # point; a point leaves it when it runs out of rows or pivots
        live = [[1, _rows_at(packed, x)]
                for x in range(start, min(start + _BATCH, deg + 1))]
        points = live[:]
        twop = 2 * p * ones
        while live:
            tops, pivots, kept = [], [], []
            for point in live:
                m = point[1]
                # the first row is the pivot most of the time: test it
                # before the scan
                i = 0 if (m[0] & mask) % p else next(
                    (i for i, r in enumerate(m) if (r & mask) % p), None)
                if i is None:
                    point[0] = 0
                    continue
                t = m.pop(i)
                for _ in range(folds):
                    t = ((t >> e) & high) * c + (t & low)
                pivot = (t & mask) % p
                # row i moved up past i rows
                point[0] = (-point[0] if i & 1 else point[0]) * pivot % p
                tops.append(t)
                pivots.append(pivot)
                kept.append(point)
            # Montgomery's trick: inv is the inverse of the product of
            # pivots[:k + 1], and prefix[k] the product of pivots[:k]
            prefix, run = [], 1
            for pivot in pivots:
                prefix.append(run)
                run = run * pivot % p
            inv = pow(run, -1, p)
            for k in range(len(kept) - 1, -1, -1):
                point, t_inv = kept[k], inv * prefix[k] % p
                inv = inv * pivots[k] % p
                # r + f * (2p - t) with f = r_0 / t_0 (mod p) takes f * t
                # from r mod p, keeps every slot non-negative since each
                # t_j < 2p, and leaves slot 0 a multiple of p, dropped by
                # >> w; a row whose slot 0 is 0 has f = 0 and only shifts
                comp = twop - tops[k]
                point[1] = [(r + s * t_inv % p * comp) >> w
                            if (s := r & mask) else r >> w
                            for r in point[1]]
            twop >>= w
            live = [point for point in kept if point[1]]
        coef += [det for det, _ in points]
    # divided differences in place: coef[k] becomes f[0, ..., k]
    for j in range(1, deg + 1):
        inv = pow(j, -1, p)
        for k in range(deg, j - 1, -1):
            coef[k] = (coef[k] - coef[k - 1]) * inv % p
    # Newton form to monomials: acc = acc * (z - k) + coef[k]
    acc = [coef[deg]]
    for k in range(deg - 1, -1, -1):
        acc = [(coef[k] - k * acc[0]) % p] + [
            (acc[i - 1] - k * acc[i]) % p for i in range(1, len(acc))
        ] + [acc[-1]]
    half = p >> 1
    return _norm([a - p if a > half else a for a in acc])


def _sparse(matrix: Sequence[Sequence | Mapping], entry) -> list[dict]:
    """The matrix as one {column: coefficient tuple} dict per row, with the
    entry x at column j given by entry(x) and zero entries left out.  A
    row is a dense sequence of length n or a mapping from column indices
    in [0, n) to entries."""
    n = len(matrix)
    rows = []
    for row in matrix:
        if isinstance(row, Mapping):
            if not all(_is_int(j) and 0 <= j < n for j in row):
                raise ValueError(f"column index outside [0, {n})")
            items = row.items()
        elif len(row) != n:
            raise ValueError("matrix is not square")
        else:
            # entry() sees every entry, so a float or Fraction zero raises
            items = enumerate(row)
        out = {}
        for j, x in items:
            e = entry(x)
            if e:
                out[j] = e
        rows.append(out)
    return rows


def _det(rows, n) -> IntPoly:
    """Determinant of n sparse rows: the sweep when the open width allows
    it, otherwise evaluation and interpolation."""
    if n == 0:
        return IntPoly((1,))
    if _open_width(rows, n) <= _SWEEP_WIDTH:
        return IntPoly._raw(_frontier_det(rows, n))
    return IntPoly._raw(_interpolated_det(rows, n))


def det_poly(matrix: Sequence[Sequence | Mapping]) -> IntPoly:
    """Exact determinant of a square matrix of IntPoly (or int) entries,
    given as dense rows or as {column: entry} rows."""
    rows = _sparse(matrix, lambda e: e.coeffs if isinstance(e, IntPoly)
                   else IntPoly((e,)).coeffs)
    return _det(rows, len(rows))


def char_poly(matrix: Sequence[Sequence | Mapping]) -> IntPoly:
    """Monic characteristic polynomial det(x*I - M) of an integer matrix,
    given as dense rows or as {column: entry} rows."""
    rows = _sparse(matrix, lambda x: (-IntPoly((x,))).coeffs)
    for i, row in enumerate(rows):
        row[i] = (row.get(i, (0,))[0], 1)
    return _det(rows, len(rows))
