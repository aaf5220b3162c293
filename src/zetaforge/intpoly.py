"""Exact univariate polynomials over the integers.

Coefficients are arbitrary-precision Python ints, stored densely with the
constant term first and no trailing zeros.  All arithmetic is exact; any
operation that would leave the ring (a division with remainder, a
non-integral series coefficient) raises instead of rounding.
"""

from __future__ import annotations

import math
from operator import add, index, neg, sub
from typing import Iterable, Iterator


class DivisibilityError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class SeriesError(ArithmeticError):
    """Raised when a power-series extraction violates an integrality
    or positivity constraint it is entitled to assume."""


# ---------------------------------------------------------------------------
# low-level kernels on raw coefficient tuples (shared with the determinant
# module, which works below the IntPoly wrapper for speed)

def _norm(coeffs) -> tuple:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(map(add, a, b))
    out += a[len(b):]
    return _norm(out)


def _neg(a):
    return tuple(-x for x in a)


def _sub(a, b):
    if not b:
        return a
    out = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] -= x
    return _norm(out)


def _mul(a, b):
    """Product: the longer factor, scaled by each nonzero coefficient of
    the shorter one, written or added into the output by slice; a
    coefficient of 1 or -1 needs no multiply."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return ()
    la = len(a)
    out = [0] * (la + len(b) - 1)
    fresh = True  # nothing written yet: the slice still holds zeros
    for i, y in enumerate(b):
        if not y:
            continue
        j = i + la
        if fresh:
            out[i:j] = a if y == 1 else map(neg if y == -1 else y.__mul__, a)
            fresh = False
        elif y == 1:
            out[i:j] = map(add, out[i:j], a)
        elif y == -1:
            out[i:j] = map(sub, out[i:j], a)
        else:
            out[i:j] = map(add, out[i:j], map(y.__mul__, a))
    return _norm(out)


def _div_exact(a, b):
    """Quotient of a by b in Z[z]; raises DivisibilityError otherwise."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        raise DivisibilityError("degree of dividend below divisor")
    rem = list(a)
    quot = [0] * (da - db + 1)
    lead = b[-1]
    for k in range(da - db, -1, -1):
        c = rem[k + db]
        if c % lead:
            raise DivisibilityError("leading coefficient not divisible")
        q = c // lead
        quot[k] = q
        if q:
            for j in range(db):
                rem[k + j] -= q * b[j]
            rem[k + db] = 0
    if any(rem):
        raise DivisibilityError("nonzero remainder")
    return _norm(quot)


# ---------------------------------------------------------------------------


class IntPoly:
    """Immutable dense polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = _norm(tuple(map(index, coeffs)))
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def _raw(cls, coeffs: tuple) -> "IntPoly":
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @classmethod
    def term(cls, coeff: int, power: int) -> "IntPoly":
        """coeff * z**power"""
        coeff = index(coeff)
        if coeff == 0:
            return ZERO
        return cls._raw((0,) * power + (coeff,))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == _norm((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return IntPoly._raw(_add(self.coeffs, other))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return IntPoly._raw(_sub(self.coeffs, other))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return IntPoly._raw(_sub(other, self.coeffs))

    def __neg__(self):
        return IntPoly._raw(_neg(self.coeffs))

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return IntPoly._raw(_mul(self.coeffs, other))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "IntPoly":
        return IntPoly._raw(_norm(tuple(k * c for k, c in enumerate(self.coeffs))[1:]))

    def __call__(self, x):
        """Evaluate by Horner; x may be int, Fraction, float or complex."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- display ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "z" if k == 1 else f"z^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


ZERO = IntPoly._raw(())
ONE = IntPoly._raw((1,))


def _coerce(other):
    if isinstance(other, IntPoly):
        return other.coeffs
    if isinstance(other, int):
        return _norm((other,))
    return NotImplemented


# ---------------------------------------------------------------------------
# exact division, gcd and square-free splitting


def exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
    """Quotient q with a == b*q, exactly over Z[z]."""
    return IntPoly._raw(_div_exact(a.coeffs, b.coeffs))


def content(p: IntPoly) -> int:
    """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
    g = 0
    for c in p.coeffs:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def primitive_part(p: IntPoly) -> IntPoly:
    """p divided by its content, sign-normalized to a positive leading
    coefficient.  The zero polynomial maps to itself."""
    if p.is_zero:
        return ZERO
    g = content(p)
    if p.leading_coefficient < 0:
        g = -g
    return IntPoly._raw(tuple(c // g for c in p.coeffs))


def _pseudo_rem(a: tuple, b: tuple) -> tuple:
    """Remainder of lc(b)^(da-db+1) * a modulo b; exact over Z."""
    da, db = len(a) - 1, len(b) - 1
    lead = b[-1]
    rem = list(a)
    for k in range(da - db, -1, -1):
        scale_needed = rem[k + db]
        for i in range(len(rem)):
            rem[i] *= lead
        for j in range(db + 1):
            rem[k + j] -= scale_needed * b[j]
        del rem[k + db:]
        if not any(rem):
            return ()
    return _norm(rem)


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient (primitive
    pseudo-remainder sequence)."""
    x, y = primitive_part(a), primitive_part(b)
    if x.is_zero:
        return y
    if y.is_zero:
        return x
    if x.degree < y.degree:
        x, y = y, x
    while not y.is_zero:
        r = IntPoly._raw(_pseudo_rem(x.coeffs, y.coeffs))
        x, y = y, primitive_part(r)
    return x


# 61-bit primes for the square-free certificate, tried in order
_CERT_PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45)


def _root_split(a: tuple, root: int) -> tuple[int, tuple]:
    """Multiplicity of an integer root in a, and a with it divided out
    (synthetic division until the remainder is nonzero)."""
    mult = 0
    while len(a) > 1:
        quot = [0] * (len(a) - 1)
        acc = 0
        for k in range(len(a) - 1, 0, -1):
            acc = a[k] + root * acc
            quot[k - 1] = acc
        if a[0] + root * acc:
            break
        a = tuple(quot)
        mult += 1
    return mult, a


def _certified_squarefree(a: tuple) -> bool:
    """True only if a (degree >= 1) is square-free: gcd(a, a') modulo a
    prime p that does not divide lc(a) is a constant.  A repeated factor
    g of a would keep its degree modulo p, since lc(g) divides lc(a), and
    divide both a and a' there.  False means undecided."""
    p = next((q for q in _CERT_PRIMES if a[-1] % q), None)
    if p is None:
        return False
    x = _norm([c % p for c in a])
    y = _norm([k * c % p for k, c in enumerate(a)][1:])
    while y:
        db = len(y) - 1
        inv = pow(y[-1], -1, p)
        rem = list(x)
        for k in range(len(rem) - 1 - db, -1, -1):
            q = rem[k + db] * inv % p
            if q:
                rem[k:k + db] = [(u - q * v) % p
                                 for u, v in zip(rem[k:k + db], y)]
        x, y = y, _norm(rem[:db])
    return len(x) == 1


def squarefree_factors(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Square-free splitting of a nonzero polynomial into pairwise-coprime
    primitive factors with positive leading coefficients, each with its
    multiplicity, in increasing multiplicity.

    The product of factor**multiplicity equals p up to a nonzero rational
    constant, so the root set with multiplicities is preserved exactly.
    The factors z - 1 and z + 1 (the (1 - z^2) prefactor of a reciprocal
    zeta polynomial puts them there with high multiplicity) are counted
    by synthetic division first.  The remainder r is certified
    square-free when gcd(r, r') modulo a 61-bit prime not dividing lc(r)
    is constant; only otherwise does Yun's algorithm run, on r alone.
    z - 1 and z + 1 then join the factor of their multiplicity, which
    gives exactly the list that Yun's algorithm returns on p.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no square-free splitting")
    pp = primitive_part(p)
    ones, rest = _root_split(pp.coeffs, 1)
    minus_ones, rest = _root_split(rest, -1)
    r = IntPoly._raw(rest)
    if r.degree < 1:
        parts = []
    elif _certified_squarefree(rest):
        parts = [(r, 1)]
    else:
        parts = _yun(r)
    by_mult = {m: f for f, m in parts}
    # products of primitive polynomials with positive leading
    # coefficients are again such (Gauss's lemma)
    for mult, linear in ((ones, (-1, 1)), (minus_ones, (1, 1))):
        if mult:
            by_mult[mult] = by_mult.get(mult, ONE) * IntPoly._raw(linear)
    return [(by_mult[m], m) for m in sorted(by_mult)]


def _yun(pp: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's square-free splitting of a primitive polynomial with
    positive leading coefficient and degree >= 1."""
    d = pp.derivative()
    u = poly_gcd(pp, d)
    if u.degree == 0:
        return [(pp, 1)]
    v = exact_div(pp, u)
    w = exact_div(d, u)
    out = []
    i = 1
    while v.degree > 0:
        y = w - v.derivative()
        h = poly_gcd(v, y)
        if h.degree > 0:
            out.append((h, i))
        v = exact_div(v, h)
        w = exact_div(y, h)
        i += 1
    return out


# ---------------------------------------------------------------------------
# series extraction of closed-geodesic counts


def log_derivative_series(zeta_inverse: IntPoly, horizon: int) -> list[int]:
    """Coefficients 1..horizon of z d/dz log(1/P) for P with P(0) = 1.

    The m-th coefficient counts the closed backtrackless tailless walks of
    length m (start position distinguished).  Computed with exact integer
    recursion; the coefficients are provably integral when P(0) = 1.
    """
    if zeta_inverse.constant_term != 1:
        raise SeriesError("constant term must be 1")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    p = zeta_inverse.coeffs
    counts = [0] * (horizon + 1)  # counts[0] unused
    for m in range(1, horizon + 1):
        acc = -m * (p[m] if m < len(p) else 0)
        for k in range(1, m):
            pk = p[k] if k < len(p) else 0
            if pk:
                acc -= pk * counts[m - k]
        counts[m] = acc
    return counts[1:]


def _mobius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def mobius_invert(counts: list[int]) -> list[int]:
    """Recover per-length prime-class counts from closed-walk counts via
    pi(m) = (1/m) * sum_{d|m} mu(m/d) * N_d.

    Raises SeriesError if any pi(m) fails to be a nonnegative integer,
    which signals inconsistent input rather than a rounding issue.
    """
    horizon = len(counts)
    primes = []
    for m in range(1, horizon + 1):
        acc = 0
        for d in range(1, m + 1):
            if m % d == 0:
                acc += _mobius(m // d) * counts[d - 1]
        q, r = divmod(acc, m)
        if r or q < 0:
            raise SeriesError(f"prime count at length {m} is not a "
                              f"nonnegative integer ({acc}/{m})")
        primes.append(q)
    return primes
