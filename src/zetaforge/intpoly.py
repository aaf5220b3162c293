"""Exact univariate polynomials over the integers.

Coefficients are arbitrary-precision Python ints, stored densely with the
constant term first and no trailing zeros.  A coefficient, a power or an
int operand must pass graphs._is_int, an int and not a bool: anything
else raises TypeError instead of being read as 0 or 1 or truncated.  All
arithmetic is exact; any operation that would leave the ring (a division
with remainder, a non-integral series coefficient) raises instead of
rounding.

The square-free split counts the roots 0 and +-1 directly, splits a
polynomial g(z^k) at the degree of g, and takes every gcd by Brown's
multi-modular algorithm, whose Euclid runs on one packed int per
polynomial modulo Mersenne primes.

The least root in (0, 1] (least_positive_root, R_G for a reciprocal zeta
polynomial) is isolated on the square-free part by Descartes counts on
dyadic intervals (Collins-Akritas 1976), narrowed by Illinois steps and
rounded by bisection, both on exact values (_nearest_float), so it is
exact up to that one rounding and never fails to converge.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import accumulate
from operator import add, neg, sub

from .graphs import _Frozen, _is_int


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
    out = list(map(sub, a, b))
    if len(a) >= len(b):
        out += a[len(b):]
    else:
        out += map(neg, b[len(a):])
    return _norm(out)


def _ones(length, width):
    """The int with a 1 at the foot of each of length slots of width
    bytes."""
    return int.from_bytes((b"\x01" + bytes(width - 1)) * length, "little")


def _pack(coeffs, width):
    """sum(c * 256**(width*k)) for the k-th coefficient c, built in linear
    time: each c is written as c + 2**(8*width - 1), which must fit in
    its slot of width bytes, and the offsets are taken off at once."""
    half = 1 << (8 * width - 1)
    data = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
    return int.from_bytes(data, "little") - (_ones(len(coeffs), width)
                                             << 8 * width - 1)


def _unpack(x, length, width):
    """The length coefficients packed in x by _pack, each of absolute
    value below 2**(8*width - 1), so no slot borrows from the next."""
    half = 1 << (8 * width - 1)
    data = (x + (_ones(length, width) << 8 * width - 1)).to_bytes(
        length * width, "little")
    return [int.from_bytes(data[i:i + width], "little") - half
            for i in range(0, length * width, width)]


# From this length of the shorter factor on, one big-int product of the
# packed factors beats the slice kernel's len(b) passes over a; shorter
# factors (the entries of a walk matrix among them) stay on the slices.
_KRONECKER_MIN = 16


def _addmul(out, a, b, negated, fresh):
    """Add a * b into the list out, or subtract it when negated; out holds
    at least len(a) + len(b) - 1 entries, all zeros when fresh.  Each
    nonzero coefficient of b scales a into its slice of out, written while
    the list is fresh and added after (a coefficient of 1 or -1 needs no
    multiply); with a the longer factor, the slices are fewer and longer."""
    la = len(a)
    for i, y in enumerate(b):
        if not y:
            continue
        if negated:
            y = -y
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


def _mul(a, b):
    """Product.  A short factor goes through the slice kernel _addmul; two
    long factors are packed into one int each (Kronecker substitution),
    multiplied once and unpacked.

    A slot of width bytes holds a coefficient c with |c| < 2**(8*width -
    1).  Coefficient k of the product is a sum of at most len(b) terms
    a_i * b_(k-i), so with A, B and L the bit lengths of max|a|, max|b|
    and len(b), it is below 2**A * 2**B * 2**L in absolute value, and
    width = (A + B + L) // 8 + 1 keeps 8*width - 1 >= A + B + L."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return ()
    if len(b) >= _KRONECKER_MIN:
        width = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                 + len(b).bit_length()) // 8 + 1
        product = _pack(a, width) * _pack(b, width)
        return _norm(_unpack(product, len(a) + len(b) - 1, width))
    out = [0] * (len(a) + len(b) - 1)
    _addmul(out, a, b, False, True)
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


class IntPoly(_Frozen):
    """Immutable dense polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = tuple(coeffs)
        if not all(map(_is_int, cs)):
            raise TypeError("coefficients must be ints, not " + ", ".join(
                sorted({type(c).__name__ for c in cs if not _is_int(c)})))
        object.__setattr__(self, "coeffs", _norm(tuple(map(int, cs))))

    @classmethod
    def _raw(cls, coeffs: tuple) -> "IntPoly":
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @classmethod
    def term(cls, coeff: int, power: int) -> "IntPoly":
        """coeff * z**power"""
        if not _is_int(power):
            raise TypeError(f"power {power!r} is not an int")
        if power < 0:
            raise ValueError("negative polynomial power")
        return cls((0,) * power + (coeff,))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    # __getitem__ reads 0 past the degree, so iterating by it would not end
    __iter__ = None

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        return other if other is NotImplemented else self.coeffs == other

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __reduce__(self):
        # rebuilt from coeffs: the default would set the slot by setattr
        return type(self), (self.coeffs,)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations ----------------------------------------------------

    def _ring(kernel):
        """The operator that applies kernel to this polynomial's
        coefficients and the coerced operand's, in that order."""
        def op(self, other):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
            return IntPoly._raw(kernel(self.coeffs, other))
        return op

    __add__ = __radd__ = _ring(_add)
    __sub__ = _ring(_sub)
    __rsub__ = _ring(lambda a, b: _sub(b, a))
    __mul__ = __rmul__ = _ring(_mul)
    del _ring

    def __neg__(self):
        return IntPoly._raw(_neg(self.coeffs))

    def __pow__(self, n: int):
        if not _is_int(n):
            return NotImplemented
        if n < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
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
    if _is_int(other):
        return _norm((int(other),))
    return NotImplemented


# ---------------------------------------------------------------------------
# exact division, gcd and square-free splitting


def exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
    """Quotient q with a == b*q, exactly over Z[z]."""
    return IntPoly._raw(_div_exact(a.coeffs, b.coeffs))


def primitive_part(p: IntPoly) -> IntPoly:
    """p divided by its content, sign-normalized to a positive leading
    coefficient.  The zero polynomial maps to itself."""
    if not p:
        return ZERO
    g = math.gcd(*p.coeffs)
    if p.leading_coefficient < 0:
        g = -g
    return IntPoly._raw(tuple(c // g for c in p.coeffs))


# exponents e >= 61 of the Mersenne primes 2^e - 1: poly_gcd's moduli,
# and the wide determinant's above 1100 bits
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217,
                       4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209,
                       44497)


def _gcd_mod(a: tuple, b: tuple, p: int) -> tuple:
    """Monic gcd modulo a Mersenne prime p = 2^e - 1 dividing neither
    leading coefficient, by Euclid on one packed int per polynomial.

    Coefficient k sits in slot k of w bits, w >= 2e + 8 and a multiple of
    8, and no slot is ever negative: a division step adds q * (2p - y_j)
    to slot j, which is the subtraction of q * y_j mod p, with q < p and
    every slot y_j of the divisor below 2p.  From a start below 2p, a
    slot stays below 2^w for 64 such additions of less than 2^(2e + 1);
    then a Mersenne fold, (v >> e) + (v & p) slot by slot (2^e = 1 mod
    p), brings it back, and two folds leave it below 2p.  The top slot is
    read by a shift and cleared by an exclusive or; a top slot that is 0
    mod p drops the degree.
    """
    e = p.bit_length()
    width = (2 * e + 15) // 8  # bytes per slot
    w = 8 * width
    ones = _ones(max(len(a), len(b)), width)
    low, high, twop = ones * p, ones * ((1 << w - e) - 1), ones * 2 * p

    def fold(v):
        v = ((v >> e) & high) + (v & low)
        return ((v >> e) & high) + (v & low)

    def pack(coeffs):  # residues need no sign offset
        return int.from_bytes(b"".join(
            [(c % p).to_bytes(width, "little") for c in coeffs]), "little")

    x, dx = pack(a), len(a) - 1
    y, dy = pack(b), len(b) - 1
    while True:
        below = (1 << w * dy) - 1
        inv = pow((y >> w * dy) % p, -1, p)
        comp = (twop & below) - (y & below)
        adds = 0
        for k in range(dx - dy, -1, -1):
            top = x >> w * dx
            x ^= top << w * dx
            dx -= 1
            q = top * inv % p
            if q:
                x += q * comp << w * k
                adds += 1
                if adds == 64:
                    x, adds = fold(x), 0
        x = fold(x)
        while dx >= 0 and not (top := x >> w * dx) % p:
            x ^= top << w * dx
            dx -= 1
        if dx < 0:
            break
        x, dx, y, dy = y, dy, x, dx
    data = y.to_bytes((dy + 1) * width, "little")
    image = [int.from_bytes(data[i:i + width], "little") % p
             for i in range(0, len(data), width)]
    inv = pow(image[-1], -1, p)
    return tuple(c * inv % p for c in image)


def _gcd(a: tuple, b: tuple) -> tuple[tuple, tuple, tuple]:
    """(g, a/g, b/g) for a nonzero a, where g = poly_gcd(a, b)."""
    if not b:
        g = primitive_part(IntPoly._raw(a)).coeffs
        return g, _div_exact(a, g), ()
    scale = math.gcd(a[-1], b[-1])
    image = ()
    for e in _MERSENNE_EXPONENTS:
        p = (1 << e) - 1
        if not a[-1] % p or not b[-1] % p:
            continue
        g = tuple(c * scale % p for c in _gcd_mod(a, b, p))
        if len(g) == 1:
            return (1,), a, b
        if image and len(g) > len(image):
            continue  # p divides a resultant: its image has extra factors
        if not image or len(g) < len(image):
            image, modulus = g, p
        else:
            inv = pow(modulus, -1, p)
            image = tuple(u + modulus * ((c - u) * inv % p)
                          for u, c in zip(image, g))
            modulus *= p
        g = primitive_part(IntPoly._raw(tuple(
            u - modulus if 2 * u > modulus else u for u in image))).coeffs
        try:
            return g, _div_exact(a, g), _div_exact(b, g)
        except DivisibilityError:
            pass
    raise ArithmeticError("gcd coefficients beyond every modulus")


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient (zero when both
    are zero), by Brown's multi-modular algorithm: the monic gcd modulo
    each Mersenne prime dividing neither leading coefficient, by packed
    Euclid (_gcd_mod), times gcd(lc a, lc b), which the gcd's leading
    coefficient divides, combined by the Chinese remainder theorem.  A
    prime can only raise the degree: a lower image restarts, a constant
    one proves the gcd is 1.  The symmetric lift's primitive part is the
    gcd once it divides both inputs exactly."""
    if not a:
        a, b = b, a
    return IntPoly._raw(_gcd(a.coeffs, b.coeffs)[0]) if a else ZERO


def _root_split(a: tuple, root: int) -> tuple[int, tuple]:
    """Multiplicity of the root 1 or -1 in a, and a with it divided out.
    The quotient by z - 1 has the suffix sums of a as its coefficients,
    which accumulate takes, and the last sum is a(1); the root -1 of a
    is the root 1 of a(-z)."""
    if root == -1:
        # a / (z + 1)^m = (-1)^m q(-z) for q = a(-z) / (z - 1)^m
        mult, quot = _root_split(_negate_from(a, 1), 1)
        return mult, _negate_from(quot, 1 - mult % 2)
    mult = 0
    while len(a) > 1:
        sums = list(accumulate(reversed(a)))
        if sums.pop():  # a(1)
            break
        sums.reverse()
        a = tuple(sums)
        mult += 1
    return mult, a


def _roots_between(h: tuple, lo: int, hi: int, scale: int = 0) -> int:
    """Sign variations of (1 + t)^d h(a + (b - a)/(1 + t)), d = deg h,
    for the dyadic endpoints a = lo / 2^scale < b = hi / 2^scale: as t
    runs over (0, inf), a + (b - a)/(1 + t) runs over (a, b), so when h
    has only real roots Descartes' rule counts its roots in the open
    interval (a, b) exactly, with multiplicity (Collins-Akritas 1976);
    in any case the count is 0 when no root lies there, and 1 when one
    simple root does and no other.  Built by a scaling of the roots by
    2^scale, a Taylor shift by lo, a scaling by hi - lo, a reversal and
    a Taylor shift by 1."""
    if scale:
        d = len(h) - 1
        h = [c << scale * (d - i) for i, c in enumerate(h)]
    a = _taylor_shift(h, lo)
    a = _taylor_shift([c * (hi - lo) ** i for i, c in enumerate(a)][::-1], 1)
    signs = [c > 0 for c in a if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _taylor_shift(a, by: int) -> list:
    """Coefficients of a(z + by), by repeated synthetic division."""
    a = list(a)
    if not by:
        return a
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += by * a[j + 1]
    return a


def _negate_from(a: tuple, start: int) -> tuple:
    """a with the coefficients start, start + 2, ... negated."""
    out = list(a)
    out[start::2] = map(neg, a[start::2])
    return tuple(out)


def squarefree_factors(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Square-free splitting of a nonzero polynomial into pairwise-coprime
    primitive factors with positive leading coefficients, each with its
    multiplicity, in increasing multiplicity.

    The product of factor**multiplicity equals p up to a nonzero rational
    constant, so the root set with multiplicities is preserved exactly.
    The root 0 is counted from the zero low coefficients.  When the
    exponents of the rest share a gcd k > 1, the rest is g(z^k) and g is
    split instead: for a square-free b with b(0) != 0, b(z^k) is again
    square-free, so the factors of g mapped by u -> z^k are the factors
    of the rest (a cycle's (1 - z^n)^2 becomes (1 - u)^2).  The factors
    u - 1 and u + 1 (the (1 - z^2) prefactor of a reciprocal zeta
    polynomial puts them there with high multiplicity) are counted by
    synthetic division, and Yun's algorithm runs on what is left alone
    (one gcd when it is square-free, decided by its first modular image).
    z, u - 1 and u + 1 then join the factor of their multiplicity, which
    gives exactly the list that Yun's algorithm returns on p, since that
    splitting is unique.
    """
    if not p:
        raise ValueError("zero polynomial has no square-free splitting")
    rest = primitive_part(p).coeffs
    zeros = next(i for i, c in enumerate(rest) if c)
    rest = rest[zeros:]
    k = math.gcd(*[i for i, c in enumerate(rest) if c])
    base = rest[::k] if k > 1 else rest
    ones, base = _root_split(base, 1)
    minus_ones, base = _root_split(base, -1)
    by_mult = {}
    if len(base) > 1:
        by_mult = {m: f.coeffs for f, m in _yun(IntPoly._raw(base))}
    # products of primitive polynomials with positive leading
    # coefficients are again such (Gauss's lemma)
    for mult, linear in ((ones, (-1, 1)), (minus_ones, (1, 1))):
        if mult:
            by_mult[mult] = _mul(by_mult.get(mult, (1,)), linear)
    if k > 1:
        for m, f in by_mult.items():
            spread = [0] * (k * (len(f) - 1) + 1)
            spread[::k] = f
            by_mult[m] = tuple(spread)
    if zeros:
        by_mult[zeros] = (0,) + by_mult.get(zeros, (1,))
    return [(IntPoly._raw(by_mult[m]), m) for m in sorted(by_mult)]


def _yun(pp: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's square-free splitting of a primitive polynomial with
    positive leading coefficient and degree >= 1."""
    _, v, w = _gcd(pp.coeffs, pp.derivative().coeffs)
    out = []
    i = 1
    while len(v) > 1:
        h, v, w = _gcd(v, _sub(w, IntPoly._raw(v).derivative().coeffs))
        if len(h) > 1:
            out.append((IntPoly._raw(h), i))
        i += 1
    return out


# ---------------------------------------------------------------------------
# the least positive root, isolated exactly and rounded once


def least_positive_root(p: IntPoly) -> float | None:
    """The least root of a nonzero polynomial in (0, 1], rounded to the
    nearest float (a root halfway between two floats to the even one, as
    float() rounds), or None when p has no root there.  R_G, the least
    positive root of a reciprocal zeta polynomial, lies there whenever
    the graph has a prime, since the spectral radius of its dart matrix
    is then at least 1.

    The primitive part of p less its root 0 is g(z^k), k the gcd of its
    exponents, and z -> z^k keeps the order of (0, 1].  The roots 1 and
    -1 of g are divided out (a root 1 gives 1.0 if none is smaller), one
    gcd with the derivative leaves the square-free part v, and the least
    root of v in (0, 1) is isolated (_least_interval) and its k-th root
    rounded (_nearest_float), never expanding v(z^k): the 1000-cycle's
    (1 - z^1000)^2 gives 1.0.  No step fails as a float root search can.
    """
    if not p:
        raise ValueError("zero polynomial has every point as a root")
    f = primitive_part(p).coeffs
    f = f[min(i for i, c in enumerate(f) if c):]
    k = math.gcd(*[i for i, c in enumerate(f) if c]) or 1
    ones, g = _root_split(f[::k], 1)
    g = _root_split(g, -1)[1]
    if len(g) > 1:
        g = _gcd(g, IntPoly._raw(g).derivative().coeffs)[1]
        if interval := _least_interval(g):
            return _nearest_float(g, k, *interval)
    return 1.0 if ones else None


def _least_interval(g: tuple) -> tuple[int, int, int] | None:
    """The least root u in (0, 1) of a square-free g with g(0) != 0, as
    (lo, hi, s) with lo < hi when the open interval (lo, hi) / 2^s holds
    u and no other root, or with lo = hi = u 2^s when u is a dyadic
    rational met on the way; no root lies in (0, lo / 2^s] either.  None
    when g has no root in (0, 1).

    A left-first bisection on Descartes counts (_roots_between) of
    (0, 1): a count of 0 drops an interval, a count of 1 isolates its
    one root, and a larger count splits it at its midpoint, where an
    exact value tells whether the midpoint is itself a root.  Every
    interval is stacked as (lo, hi, s), and a stacked (u, u, s) is the
    root u."""
    signs = [c > 0 for c in g if c]
    if all(x == y for x, y in zip(signs, signs[1:])):
        return None  # no sign variation: no positive root
    stack = [(0, 1, 0)]
    while stack:
        lo, hi, s = stack.pop()
        count = _roots_between(g, lo, hi, s) if lo < hi else 1
        if count == 1:
            return lo, hi, s
        if count:
            mid = lo + hi  # at scale s + 1
            stack.append((mid, 2 * hi, s + 1))
            if not _scaled_value(g, mid, s + 1):
                stack.append((mid, mid, s + 1))
            stack.append((2 * lo, mid, s + 1))
    return None


def _scaled_value(g, num: int, shift: int) -> int:
    """2^(shift deg(g)) g(num / 2^shift), exactly, by Horner's rule
    scaled to integers; one bit more of shift shifts it by deg(g) bits."""
    acc, power = g[-1], 0
    for c in g[-2::-1]:
        power += shift
        acc = acc * num + (c << power)
    return acc


def _nearest_float(g, k: int, lo: int, hi: int, s: int) -> float:
    """The float nearest to the root z of g(z^k) whose k-th power is the
    root u of g that _least_interval gives as (lo, hi, s); a tie goes to
    the even float, as float() rounds.

    Illinois steps (Dowell and Jarratt 1971) on exact values of g narrow
    (lo, hi) to 2^-56 of lo: the chord point, on a grid 2^-64 of it or of
    the bracket, whichever is coarser, and strictly inside, replaces the
    end of its sign, and an end kept twice running has its value halved;
    the midpoint stands in until hi has a value and after three steps
    that do not halve the bracket.  A bisection of (0, 1] then pins z:
    g has the sign of g(0) on [0, u) and the other on (u, hi / 2^s), so
    m^k <= lo / 2^s and m^k >= hi / 2^s need no evaluation, and a zero
    of g(m^k) is z (a dyadic u is the root of the linear lo - 2^s u).
    Rounding is monotone: once both ends round to one float, so does z."""
    side, step = g[0] > 0, len(g) - 1  # scale s + 1 shifts a value by step
    fa, fb, stalls, last, span = 0, 0, 0, None, hi - lo  # fa, fb: 0 if unknown
    while lo < hi and (hi - lo) << 56 > lo:
        if fb and stalls < 3:
            fa = fa or _scaled_value(g, lo, s)
            num, den = hi * fa - lo * fb, fa - fb  # the chord point num / den
            e = 64 - max((num // den).bit_length(), (hi - lo).bit_length())
            e = max(hi - lo == 1, e)
            m = (2 * (num << e) + den) // (2 * den)
        else:
            e, m = 1, lo + hi
        lo, hi, s, span = lo << e, hi << e, s + e, span << e
        fa, fb, m = fa << e * step, fb << e * step, min(max(m, lo + 1), hi - 1)
        value = _scaled_value(g, m, s)
        left = (value > 0) == side
        if left == last:  # the other end is kept twice running
            fa, fb = (fa, fb // 2) if left else (fa // 2, fb)
        if left or not value:  # both ends at a root met exactly
            lo, fa = m, value
        if not left or not value:
            hi, fb = m, value
        last = left
        stalls = 0 if 2 * (hi - lo) <= span else stalls + 1
        span = span if stalls else hi - lo
    if lo == hi:
        g, lo, hi, s, side = (lo, -1 << s), 0, 1, 0, True
    j = min(s, (lo ^ hi).bit_length()) if k == 1 else s
    a, b, t = lo >> j, (lo >> j) + 1, s - j  # z in (a, b] / 2^t, aligned
    while a / (1 << t) != b / (1 << t):
        m, t = a + b, t + 1
        um, shift = m ** k, t * k  # m^k = um / 2^shift
        if um << s <= lo << shift:
            left = True
        elif um << s >= hi << shift:
            left = False
        else:
            value = _scaled_value(g, um, shift)
            if not value:
                return m / (1 << t)
            left = (value > 0) == side
        a, b = (m, 2 * b) if left else (2 * a, m)
    return a / (1 << t)


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
    if not _is_int(horizon):
        raise TypeError(f"horizon {horizon!r} is not an int")
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
    which signals inconsistent input rather than a rounding issue, and
    TypeError on a count that is not an int (a float or a bool).
    """
    for count in counts:
        if not _is_int(count):
            raise TypeError(f"count {count!r} is not an int")
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
