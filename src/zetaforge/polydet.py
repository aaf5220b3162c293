"""Exact determinants of matrices with integer-polynomial entries.

``det_poly`` and ``char_poly`` pick one of two exact routes from the
support pattern of the matrix, before any arithmetic:

* a division-free expansion that sweeps the rows once and memoizes on the
  set of used columns that are still "open" (nonzero in an earlier or the
  current row and in a later row).  Its states are subsets of the open
  columns, so a matrix whose open width never exceeds ``_SWEEP_WIDTH``
  has at most 2**_SWEEP_WIDTH states per row.  Banded and otherwise
  locally-connected matrices, long cycle graphs among them, stay nearly
  linear in the matrix size on this route;
* evaluation and interpolation for every wider matrix: integer
  fraction-free Bareiss elimination at deg+1 integer points, with deg the
  sum over rows of the largest entry degree, then exact Newton
  interpolation over Z.

Both are exact over Z[z]; they are property-tested against each other and
against cofactor expansion.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Sequence

from .intpoly import DivisibilityError, IntPoly, _add, _mul, _neg, _norm

_SWEEP_WIDTH = 11  # at most 2**11 sweep states per row


def _frontier_det(rows, n):
    """Division-free determinant sweep over the rows."""
    support = [tuple(j for j in range(n) if rows[i][j]) for i in range(n)]
    if any(not s for s in support):
        return ()
    last_row = [-1] * n
    for i in range(n):
        for j in support[i]:
            last_row[j] = i
    if min(last_row) < 0:
        return ()  # an all-zero column
    states = {frozenset(): (1,)}
    closed: list[int] = []  # sorted columns already forced to be used
    for i in range(n):
        nxt = {}
        for used, val in states.items():
            for c in support[i]:
                if c in used:
                    continue
                below = bisect_left(closed, c) + sum(1 for u in used if u < c)
                term = _mul(val, rows[i][c])
                if (c - below) & 1:
                    term = _neg(term)
                key = used | {c}
                cur = nxt.get(key)
                nxt[key] = _add(cur, term) if cur is not None else term
        expiring = frozenset(c for c in range(n) if last_row[c] == i)
        if expiring:
            merged = {}
            for used, val in nxt.items():
                if not expiring <= used:
                    continue  # an expired column stayed unused: dead branch
                key = used - expiring
                cur = merged.get(key)
                merged[key] = _add(cur, val) if cur is not None else val
            nxt = merged
            for c in expiring:
                insort(closed, c)
        states = {k: v for k, v in nxt.items() if v}
        if not states:
            return ()
    if set(states) != {frozenset()}:
        raise AssertionError("determinant sweep left unresolved columns")
    return states[frozenset()]


def _open_width(rows, n):
    """Largest number of columns open after any row: nonzero at or above
    it and nonzero below it."""
    first, last = [n] * n, [-1] * n
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if e:
                first[j] = min(first[j], i)
                last[j] = i
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


def _int_det(m):
    """Determinant of a square integer matrix (a list of row lists) by
    fraction-free Bareiss elimination; every division is exact."""
    sign, prev = 1, 1
    while len(m) > 1:
        if not m[0][0]:
            swap = next((i for i, row in enumerate(m) if row[0]), None)
            if swap is None:
                return 0
            m[0], m[swap] = m[swap], m[0]
            sign = -sign
        pivot, *top = m[0]
        m = [[(pivot * a - row[0] * b) // prev for a, b in zip(row[1:], top)]
             if row[0] else [pivot * a // prev for a in row[1:]]
             for row in m[1:]]
        prev = pivot
    return sign * m[0][0]


def _interpolated_det(rows, n):
    """Determinant by evaluation at the points 0, 1, -1, 2, -2, ... and
    Newton interpolation; raises DivisibilityError if a divided
    difference is not an integer."""
    lengths = [max(len(e) for e in row) for row in rows]
    if not min(lengths):
        return ()  # a zero row
    deg = sum(lengths) - n
    xs = [(k + 1) // 2 * (1 if k & 1 else -1) for k in range(deg + 1)]
    coef = []
    for x in xs:
        m = []
        for row in rows:
            vals = []
            for e in row:
                acc = 0
                for c in reversed(e):
                    acc = acc * x + c
                vals.append(acc)
            m.append(vals)
        coef.append(_int_det(m))
    # divided differences in place: coef[k] becomes f[x_0, ..., x_k]
    for j in range(1, deg + 1):
        for k in range(deg, j - 1, -1):
            q, r = divmod(coef[k] - coef[k - 1], xs[k] - xs[k - j])
            if r:
                raise DivisibilityError("non-integral divided difference")
            coef[k] = q
    # Newton form to monomials: acc = acc * (z - x_k) + coef[k]
    acc = [coef[deg]]
    for k in range(deg - 1, -1, -1):
        x = xs[k]
        acc = [coef[k] - x * acc[0]] + [
            acc[i - 1] - x * acc[i] for i in range(1, len(acc))] + [acc[-1]]
    return _norm(acc)


def _det(matrix, entry) -> IntPoly:
    """Determinant of a square matrix whose (i, j) entry x becomes the
    coefficient tuple entry(i, j, x): the sweep when the open width
    allows it, otherwise evaluation and interpolation."""
    n = len(matrix)
    rows = []
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix is not square")
        rows.append(tuple(entry(i, j, x) for j, x in enumerate(row)))
    if n == 0:
        return IntPoly((1,))
    if _open_width(rows, n) <= _SWEEP_WIDTH:
        return IntPoly._raw(_frontier_det(rows, n))
    return IntPoly._raw(_interpolated_det(rows, n))


def det_poly(matrix: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """Exact determinant of a square matrix of IntPoly (or int) entries."""
    return _det(matrix, lambda i, j, e: e.coeffs if isinstance(e, IntPoly)
                else _norm((int(e),)))


def char_poly(matrix: Sequence[Sequence[int]]) -> IntPoly:
    """Monic characteristic polynomial det(x*I - M) of an integer matrix."""
    return _det(matrix, lambda i, j, x: _norm((-int(x), 1) if i == j
                                              else (-int(x),)))
