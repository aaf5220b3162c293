"""Exact determinants of matrices with integer-polynomial entries.

A matrix is held as one ``{column: coefficient tuple}`` dict per row with
its nonzero entries only, so the work below follows the nonzeros, not
n**2.  ``det_poly`` and ``char_poly`` take dense rows or rows given as
mappings and pick one of two exact routes from the support pattern of
the matrix, before any arithmetic:

* a division-free expansion that sweeps the rows once and memoizes on the
  set of used columns.  Once a column's last nonzero row is passed, every
  live state holds it, so the states differ only in the columns that are
  still "open" (nonzero in an earlier or the current row and in a later
  row).  A matrix whose open width never exceeds ``_SWEEP_WIDTH`` has at
  most 2**_SWEEP_WIDTH states per row.  Banded and otherwise
  locally-connected matrices, long cycle graphs among them, stay nearly
  linear in the number of nonzeros on this route;
* evaluation and interpolation for every wider matrix: integer
  fraction-free Bareiss elimination at deg+1 integer points, with deg the
  sum over rows of the largest entry degree, then exact Newton
  interpolation over Z.

Both are exact over Z[z]; they are property-tested against each other and
against cofactor expansion.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import compress
from typing import Sequence, Union

from .intpoly import DivisibilityError, IntPoly, _add, _mul, _neg, _norm

_SWEEP_WIDTH = 11  # at most 2**11 sweep states per row

Row = Union[Sequence, Mapping]


def _frontier_det(rows, n):
    """Division-free determinant sweep over the sparse rows.

    A state is the bit mask of the columns used so far; every live state
    after row i holds all columns whose last nonzero row is at most i, so
    dropping the states that miss one of them is the only merge needed.
    """
    last_row = [-1] * n
    for i, row in enumerate(rows):
        if not row:
            return ()  # a zero row
        for c in row:
            last_row[c] = i
    if min(last_row) < 0:
        return ()  # an all-zero column
    expiring = [0] * n  # bit mask of the columns whose last row is i
    for c, i in enumerate(last_row):
        expiring[i] |= 1 << c
    states = {0: (1,)}
    for row, need in zip(rows, expiring):
        # (bit, mask of the columns below it, entry, negated entry)
        entries = [(1 << c, (1 << c) - 1, e, _neg(e))
                   for c, e in sorted(row.items())]
        nxt = {}
        for used, val in states.items():
            for bit, low, pos, neg in entries:
                if used & bit:
                    continue
                # sign of the column among the columns not yet used
                term = _mul(val, neg if ((low & ~used).bit_count() & 1)
                            else pos)
                key = used | bit
                cur = nxt.get(key)
                nxt[key] = _add(cur, term) if cur is not None else term
        states = {k: v for k, v in nxt.items() if v and k & need == need}
        if not states:
            return ()
    full = (1 << n) - 1
    if list(states) != [full]:
        raise AssertionError("determinant sweep left unresolved columns")
    return states[full]


def _open_width(rows, n):
    """Largest number of columns open after any row: nonzero at or above
    it and nonzero below it."""
    first, last = [n] * n, [-1] * n
    for i, row in enumerate(rows):
        for c in row:
            if first[c] > i:
                first[c] = i
            last[c] = i
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
    """Determinant of the sparse rows by evaluation at the points 0, 1,
    -1, 2, -2, ... and Newton interpolation; raises DivisibilityError if
    a divided difference is not an integer."""
    if not all(rows):
        return ()  # a zero row
    deg = sum(max(len(e) for e in row.values()) for row in rows) - n
    xs = [(k + 1) // 2 * (1 if k & 1 else -1) for k in range(deg + 1)]
    coef = []
    for x in xs:
        m = []
        for row in rows:
            vals = [0] * n
            for c, e in row.items():
                acc = 0
                for a in reversed(e):
                    acc = acc * x + a
                vals[c] = acc
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


def _sparse(matrix: Sequence[Row], entry) -> list[dict]:
    """The matrix as one {column: coefficient tuple} dict per row, with the
    entry x at column j given by entry(x) and zero entries left out.  A
    row is a dense sequence of length n or a mapping from column indices
    in [0, n) to entries."""
    n = len(matrix)
    rows = []
    for row in matrix:
        if isinstance(row, Mapping):
            if not all(isinstance(j, int) and 0 <= j < n for j in row):
                raise ValueError(f"column index outside [0, {n})")
            items = row.items()
        elif len(row) != n:
            raise ValueError("matrix is not square")
        else:
            items = zip(compress(range(n), row), compress(row, row))
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


def det_poly(matrix: Sequence[Row]) -> IntPoly:
    """Exact determinant of a square matrix of IntPoly (or int) entries,
    given as dense rows or as {column: entry} rows."""
    rows = _sparse(matrix, lambda e: e.coeffs if isinstance(e, IntPoly)
                   else _norm((int(e),)))
    return _det(rows, len(rows))


def char_poly(matrix: Sequence[Row]) -> IntPoly:
    """Monic characteristic polynomial det(x*I - M) of an integer matrix,
    given as dense rows or as {column: entry} rows."""
    rows = _sparse(matrix, lambda x: _norm((-int(x),)))
    for i, row in enumerate(rows):
        row[i] = (row.get(i, (0,))[0], 1)
    return _det(rows, len(rows))
