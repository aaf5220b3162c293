"""Exact determinants of matrices with integer-polynomial entries.

Two interchangeable exact algorithms sit behind ``det_poly``:

* a division-free expansion that sweeps the rows once and memoizes on the
  set of used columns that are still "open" (referenced by a later row).
  On banded or otherwise locally-connected matrices the live state set
  stays tiny and the cost is nearly linear in the matrix size, which is
  what makes long cycle graphs cheap;
* fraction-free Bareiss elimination, used as the general fallback when
  the state set of the sweep exceeds a fixed cap (dense matrices).

Both are exact over Z[z]; they are property-tested against each other and
against cofactor expansion.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Sequence

from .intpoly import IntPoly, _add, _div_exact, _mul, _neg, _norm, _sub

_STATE_CAP = 2048  # dense matrices beyond ~13x13 hand off to Bareiss


def _frontier_det(rows, n, state_cap):
    """Division-free determinant sweep; None if the state set blows up."""
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
        if len(states) > state_cap:
            return None
    if set(states) != {frozenset()}:
        raise AssertionError("determinant sweep left unresolved columns")
    return states[frozenset()]


def _bareiss_det(rows, n):
    """Fraction-free elimination with exact divisions and zero skipping."""
    m = [list(r) for r in rows]
    sign = 1
    prev = (1,)
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return ()
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            low = row_i[k]
            if not low:
                for j in range(k + 1, n):
                    e = row_i[j]
                    if e:
                        row_i[j] = _div_exact(_mul(pivot, e), prev)
                continue
            row_i[k] = ()
            for j in range(k + 1, n):
                e = row_i[j]
                top = row_k[j]
                if e:
                    num = _mul(pivot, e)
                    if top:
                        num = _sub(num, _mul(low, top))
                elif top:
                    num = _neg(_mul(low, top))
                else:
                    continue
                row_i[j] = _div_exact(num, prev) if num else ()
        prev = pivot
    d = m[n - 1][n - 1]
    return d if sign == 1 else _neg(d)


def _det(matrix, entry) -> IntPoly:
    """Determinant of a square matrix whose (i, j) entry x becomes the
    coefficient tuple entry(i, j, x): the sweep, or Bareiss past the cap."""
    n = len(matrix)
    rows = []
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix is not square")
        rows.append(tuple(entry(i, j, x) for j, x in enumerate(row)))
    if n == 0:
        return IntPoly((1,))
    d = _frontier_det(rows, n, _STATE_CAP)
    if d is None:
        d = _bareiss_det(rows, n)
    return IntPoly._raw(d)


def det_poly(matrix: Sequence[Sequence[IntPoly]]) -> IntPoly:
    """Exact determinant of a square matrix of IntPoly (or int) entries."""
    return _det(matrix, lambda i, j, e: e.coeffs if isinstance(e, IntPoly)
                else _norm((int(e),)))


def char_poly(matrix: Sequence[Sequence[int]]) -> IntPoly:
    """Monic characteristic polynomial det(x*I - M) of an integer matrix."""
    return _det(matrix, lambda i, j, x: _norm((-int(x), 1) if i == j
                                              else (-int(x),)))
