import math
import pickle
import random
from fractions import Fraction

import pytest

import zetaforge.intpoly as intpoly
from test_census import census_workload_graphs
from test_rootfind import decimal_root
from test_same_output import grid_graphs, random_graph
from zetaforge.catalog import (ade_graph, dimer_graph, load_catalog,
                               quiver_to_graph)
from zetaforge.census import enumerate_primes
from zetaforge.graphs import MixedGraph, degree_profile
from zetaforge.intpoly import (_MERSENNE_EXPONENTS, DivisibilityError,
                               IntPoly, SeriesError, _add, _addmul,
                               _gcd_mod, _least_interval, _mul, _neg,
                               _norm, _root_split, _roots_between, _sub,
                               _yun, exact_div, least_positive_root,
                               log_derivative_series, mobius_invert,
                               poly_gcd, primitive_part, squarefree_factors)
from zetaforge.rootfind import NumericalError, find_roots
from zetaforge.zeta import analyze, zeta_inverse


def P(*coeffs):
    return IntPoly(coeffs)


def yun_split(p):
    """Yun's algorithm on the whole primitive part, with no shortcut."""
    pp = primitive_part(p)
    return _yun(pp) if pp.degree >= 1 else []


def _pseudo_rem(a, b):
    """Remainder of lc(b)^(da-db+1) * a modulo b; exact over Z."""
    da, db = len(a) - 1, len(b) - 1
    rem = list(a)
    for k in range(da - db, -1, -1):
        top = rem[k + db]
        rem = [c * b[-1] for c in rem]
        for j in range(db + 1):
            rem[k + j] -= top * b[j]
        del rem[k + db:]
    return _norm(rem)


def prs_gcd(a, b):
    """The primitive pseudo-remainder sequence: an oracle for poly_gcd
    that shares no code with its modular images."""
    x, y = primitive_part(a), primitive_part(b)
    if x.degree < y.degree:
        x, y = y, x
    while y:
        x, y = y, primitive_part(IntPoly(_pseudo_rem(x.coeffs, y.coeffs)))
    return x


def oracle_split(p):
    """Yun's algorithm over prs_gcd on the whole primitive part."""
    v = primitive_part(p)
    if v.degree < 1:
        return []
    u = prs_gcd(v, v.derivative())
    w = exact_div(v.derivative(), u)
    v = exact_div(v, u)
    out, i = [], 1
    while v.degree > 0:
        y = w - v.derivative()
        h = prs_gcd(v, y)
        if h.degree > 0:
            out.append((h, i))
        v, w, i = exact_div(v, h), exact_div(y, h), i + 1
    return out


def list_gcd_mod(a, b, p):
    """Monic gcd modulo p by Euclid on coefficient lists: the reference
    for the packed _gcd_mod (a subtraction adds under p^2, so each step
    reduces once)."""
    x, y = [c % p for c in a], [c % p for c in b]
    while y:
        db = len(y) - 1
        inv = pow(y[-1], -1, p)
        for k in range(len(x) - 1 - db, -1, -1):
            q = x[k + db] * inv % p
            if q:
                x[k:k + db] = [u - q * v for u, v in zip(x[k:k + db], y)]
        x, y = y, list(_norm([c % p for c in x[:db]]))
    inv = pow(x[-1], -1, p)
    return tuple(c * inv % p for c in x)


def lacunary_poly(rng, k):
    """A random p = c * z^j * g(z^k), with j zero roots, an integer
    content c that may be negative, repeated factors of g, and roots of g
    at 1 and -1; returned with j."""
    g = IntPoly((rng.choice((-6, -2, -1, 1, 3, 4)),))
    for _ in range(rng.randint(1, 3)):
        base = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
                       + [rng.choice((-3, -1, 1, 2))])
        if base.constant_term:
            g = g * base ** rng.randint(1, 3)
    g = g * P(-1, 1) ** rng.randint(0, 3) * P(1, 1) ** rng.randint(0, 3)
    zeros = rng.randint(0, 3)
    spread = [0] * (k * g.degree + 1)
    spread[::k] = g.coeffs
    return IntPoly((0,) * zeros + tuple(spread)), zeros


def lucas_lehmer(e):
    """Whether 2^e - 1 is prime, for an odd prime e."""
    m, s = (1 << e) - 1, 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


def random_poly(rng, max_deg, big=False):
    """A random polynomial of degree at most max_deg; big asks for
    coefficients of about 200 bits, beyond the first two moduli."""
    size = 2 ** 200 if big else 9
    return IntPoly(rng.randint(-size, size)
                   for _ in range(rng.randint(1, max_deg + 1)))


def schoolbook_mul(a, b):
    """The plain double loop over both factors: the reference for _mul."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _norm(out)


def random_coeffs(rng, max_len):
    """A normalized coefficient tuple, rich in zeros and in +-1."""
    pool = [0, 0, 0, 1, 1, -1, -1, 2, -3, 10 ** 30, -(2 ** 70)]
    return _norm(tuple(rng.choice(pool) if rng.random() < 0.8
                       else rng.randint(-10 ** 6, 10 ** 6)
                       for _ in range(rng.randint(0, max_len))))


class TestKernels:
    def test_mul_matches_schoolbook(self):
        rng = random.Random(31)
        for _ in range(2000):
            a = random_coeffs(rng, rng.choice([0, 1, 4, 40]))
            b = random_coeffs(rng, rng.choice([0, 1, 4, 40]))
            assert _mul(a, b) == _mul(b, a) == schoolbook_mul(a, b)
        # exact lengths on both sides of the packed path, which takes a
        # shorter factor of 16 coefficients or more; every factor keeps
        # interior zeros
        pools = ((0, 1, -1),
                 (0, 1, -1, 1 << 300, -(1 << 300), (1 << 300) - 1, 7),
                 (0, 0, 1, -1, 2, -3, 10 ** 30, -(2 ** 70)))
        for la in (1, 15, 16, 17, 64, 300):
            for lb in (1, 15, 16, 17, 64, 300):
                if lb > la:
                    continue
                for pool in pools:
                    a, b = ([rng.choice(pool) for _ in range(n - 1)]
                            + [rng.choice(pool[1:])] for n in (la, lb))
                    for f in (a, b):
                        if len(f) > 2:
                            f[len(f) // 3] = 0
                    a, b = tuple(a), tuple(b)
                    assert _mul(a, b) == _mul(b, a) == schoolbook_mul(a, b)
        # the packed slots are sized by a bound that factors of equal
        # coefficients 2**k - 1 meet almost with equality
        for n in (16, 31, 63, 64, 127):
            for ka in range(1, 13):
                for kb in range(1, 13):
                    a, b = (1 << ka) - 1, 1 - (1 << kb)
                    expect = tuple(a * b * min(k + 1, n, 2 * n - 1 - k)
                                   for k in range(2 * n - 1))
                    assert _mul((a,) * n, (b,) * n) == expect

    def test_addmul_adds_or_subtracts_the_product(self):
        """The slice kernel that _mul and the determinant sweep share:
        a * b written into a fresh list of zeros, or added to (subtracted
        from, when negated) a list that already holds a sum, which may be
        longer than the product, for factors of lengths 1-20 rich in 0,
        +-1 and 300-bit coefficients, zero factors included."""
        rng = random.Random(53)
        big = 1 << 300
        pool = (0, 0, 1, 1, -1, -1, big, -big, big - 1, 7)
        for _ in range(3000):
            a, b = (tuple(rng.choice(pool) for _ in range(rng.randint(1, 20)))
                    for _ in range(2))
            size = len(a) + len(b) - 1 + rng.choice((0, 0, 1, 5))
            product = schoolbook_mul(a, b)
            for negated in (False, True):
                term = _neg(product) if negated else product
                out = [0] * size
                _addmul(out, a, b, negated, True)
                assert len(out) == size and _norm(out) == term
                out = [0] * size
                _addmul(out, a, b, negated, False)
                assert _norm(out) == term
                held = [rng.choice(pool) for _ in range(size)]
                out = list(held)
                _addmul(out, a, b, negated, False)
                assert len(out) == size
                assert _norm(out) == _add(_norm(held), term)

    def test_dot_matches_schoolbook_sum(self):
        # factors of equal coefficients 2**b - 1 meet the bound that sizes
        # the packed slots almost with equality: coefficient 30 of every
        # product below is 31 * (2**b - 1)**2, and b runs over enough
        # values that the bound, rounded up to whole bytes, keeps no slack
        assert 31 >= intpoly._KRONECKER_MIN
        for b in range(1, 25):
            c = (1 << b) - 1
            for n in (31, 32, 33):
                x, y = (c,) * 31, (c,) * n
                expect = schoolbook_mul(x, y)
                assert _mul(x, y) == _mul(y, x) == expect, (b, n)
                assert _mul(_neg(x), y) == _mul(x, _neg(y)) == _neg(expect)
                assert _mul(_neg(x), _neg(y)) == expect

    def test_powers_of_one_minus_z_squared(self):
        base = P(1, 0, -1)
        for k in range(201):
            expect = [0] * (2 * k + 1)
            for j in range(k + 1):
                expect[2 * j] = (-1) ** j * math.comb(k, j)
            assert (base ** k).coeffs == tuple(expect), k

    def test_add_matches_termwise_sum(self):
        rng = random.Random(37)
        for _ in range(1000):
            a = random_coeffs(rng, 12)
            b = random_coeffs(rng, 12)
            long = max(len(a), len(b))
            a0 = list(a) + [0] * (long - len(a))
            b0 = list(b) + [0] * (long - len(b))
            assert _add(a, b) == _norm([x + y for x, y in zip(a0, b0)])
        # cancellation of the leading terms renormalizes
        assert _add((1, 2, 3), (0, -2, -3)) == (1,)


class TestArithmetic:
    def test_immutable_once_built(self):
        """A polynomial used as a dict key keeps its coefficients: its
        field can be neither assigned nor deleted, and a pickle round trip
        rebuilds an equal polynomial."""
        p = P(1, 0, -2)
        table = {p: "key"}
        with pytest.raises(AttributeError):
            p.coeffs = (5,)
        with pytest.raises(AttributeError):
            del p.coeffs
        assert p.coeffs == (1, 0, -2) and hash(p) == hash(P(1, 0, -2))
        assert table[P(1, 0, -2)] == "key" and P(5) not in table
        assert not hasattr(p, "__dict__")  # slotted: no field can be added
        for q in (p, P(), P(-(1 << 300), 1)):
            back = pickle.loads(pickle.dumps(q))
            assert type(back) is IntPoly and back == q
            assert hash(back) == hash(q) and back.coeffs == q.coeffs

    def test_normalization_strips_trailing_zeros(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).coeffs == ()
        assert P().degree == -1

    def test_non_integers_rejected(self):
        """Nothing rounds: a float or Fraction coefficient raises."""
        for bad in (1.9, 2.0, Fraction(5, 2), Fraction(4, 2)):
            with pytest.raises(TypeError):
                P(1, bad)
            with pytest.raises(TypeError):
                IntPoly.term(bad, 2)
        assert IntPoly.term(3, 2).coeffs == (0, 0, 3)

    def test_bools_rejected(self):
        """A bool is not an int (graphs._is_int) as a coefficient, as a
        term's coefficient or power, as an exponent or as an operand.
        index() took True as 1: IntPoly([True, False, True]) was 1 + z^2."""
        for build in (lambda: IntPoly([True]),
                      lambda: IntPoly([True, False, True]),
                      lambda: IntPoly.term(True, 1),
                      lambda: IntPoly.term(1, True),
                      lambda: P(1, 1) ** True,
                      lambda: IntPoly([1.0]),
                      lambda: P(1) + True,
                      lambda: False * P(1)):
            with pytest.raises(TypeError):
                build()
        assert P(1) != True and P() != False

    def test_int_subclass_is_stored_as_int(self):
        class Count(int):
            pass

        p = IntPoly([Count(3), 0, Count(1)])
        assert p == P(3, 0, 1) and [type(c) for c in p.coeffs] == [int] * 3
        q = IntPoly.term(Count(2), Count(2))
        assert q == P(0, 0, 2) and type(q.coeffs[-1]) is int
        assert P(1, 1) ** Count(2) == P(1, 2, 1)
        assert type((P() + Count(2)).coeffs[0]) is int and P(2) == Count(2)

    def test_not_iterable(self):
        """Indexing reads 0 past the degree, so iteration by indexing
        would never end: an IntPoly is not iterable and has no length."""
        with pytest.raises(TypeError):
            iter(P(1, 2))
        with pytest.raises(TypeError):
            len(P(1, 2))
        assert P(1, 2)[1] == 2 and P(1, 2)[5] == 0

    def test_negative_term_power_rejected(self):
        # term(3, -2) used to return the constant 3
        for coeff, power in ((3, -2), (1, -1), (0, -1)):
            with pytest.raises(ValueError, match="negative polynomial power"):
                IntPoly.term(coeff, power)
        assert IntPoly.term(3, 0) == P(3)
        assert IntPoly.term(0, 3) == 0 and not IntPoly.term(0, 3)

    def test_ring_ops(self):
        a = P(1, 2)
        b = P(0, 0, 3)
        assert (a + b).coeffs == (1, 2, 3)
        assert (a - a).coeffs == ()
        assert (a * b).coeffs == (0, 0, 3, 6)
        assert (2 * a).coeffs == (2, 4)
        assert (a - 1).coeffs == (0, 2)

    def test_operand_order_and_foreign_operands(self):
        """An int on the left subtracts in its own order; == compares
        with an int as with the constant polynomial; a str operand gets
        NotImplemented from each operator, so Python raises TypeError or
        falls back to identity."""
        a = P(1, 2)
        assert (1 - a).coeffs == (0, -2)
        assert (3 - P(1, 0, 1)).coeffs == (2, 0, -1)
        assert (0 - a) == -a and (1 - P(1)).coeffs == ()
        assert P(5) == 5 and 5 == P(5) and P() == 0
        assert P(5) != 6 and a != 1 and P(0, 1) != 0
        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__eq__"):
            assert getattr(a, name)("z") is NotImplemented, name
        with pytest.raises(TypeError):
            a + "z"
        with pytest.raises(TypeError):
            "z" - a
        with pytest.raises(TypeError):
            a * "z"
        assert (a == "z") is False and (a != "z") is True

    def test_pow(self):
        assert (P(1, 1) ** 4).coeffs == (1, 4, 6, 4, 1)
        assert (P(1, -1) ** 0).coeffs == (1,)
        with pytest.raises(ValueError):
            P(1, 1) ** -1

    def test_eval_and_derivative(self):
        p = P(1, -2, 0, 0, 1)
        assert p(0) == 1
        assert p(2) == 1 - 4 + 16
        assert p.derivative().coeffs == (-2, 0, 0, 4)
        assert abs(p(1 + 0j) - 0) == 0

    def test_str(self):
        assert str(P(1, -2, 0, 0, 1)) == "1 - 2*z + z^4"
        assert str(P()) == "0"
        assert str(P(0, 0, -1)) == "-z^2"


class TestExactDiv:
    def test_square_by_factor(self):
        sq = P(1, 0, -1) ** 2
        assert exact_div(sq, P(1, 0, -1)) == P(1, 0, -1)

    def test_synthetic_division(self):
        num = P(1, -8, 23, -44, 28)
        assert exact_div(num, P(1, -1)).coeffs == (1, -7, 16, -28)

    def test_not_divisible(self):
        with pytest.raises(DivisibilityError):
            exact_div(P(1, 0, 0, -1), P(1, 0, -1))

    def test_zero_and_higher_degree_divisors(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(P(1, 2), P())
        with pytest.raises(DivisibilityError, match="dividend below divisor"):
            exact_div(P(1, 2), P(1, 0, 1))

    def test_random_products_divide_back(self):
        rng = random.Random(42)
        for _ in range(200):
            a = IntPoly(rng.randint(-5, 5) for _ in range(rng.randint(1, 6)))
            b = IntPoly(rng.randint(-5, 5) for _ in range(rng.randint(1, 6)))
            if not a or not b:
                continue
            assert exact_div(a * b, b) == a


def synthetic_root_split(a, root):
    """Repeated synthetic division by z - root: the reference for
    _root_split."""
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


class TestRootSplit:
    def test_matches_synthetic_division(self):
        """Seeded polynomials times (z - 1)^i (z + 1)^j (z - 2)^l, with
        content and either sign of the leading coefficient, at the roots
        +-1."""
        rng = random.Random(29)
        for _ in range(300):
            a = random_coeffs(rng, 8) or (rng.choice((1, -3)),)
            for root, times in ((1, rng.randint(0, 6)),
                                (-1, rng.randint(0, 6)),
                                (2, rng.randint(0, 2))):
                for _ in range(times):
                    a = _mul(a, (-root, 1))
            a = tuple(c * rng.choice((1, -1, 6)) for c in a)
            for root in (1, -1):
                got = _root_split(a, root)
                assert got == synthetic_root_split(a, root)
                assert type(got[1]) is tuple

    def test_constants_and_linear_factors(self):
        for a in ((5,), (-1, 1), (1, 1), (0, 1), (1, 0, -1), (1, 0, 1)):
            for root in (1, -1):
                assert _root_split(a, root) == synthetic_root_split(a, root)

    def test_high_multiplicity(self):
        """The (1 - z^2)^81 prefactor of D40 with loops, times 2z - 1."""
        a = (P(1, 0, -1) ** 81 * P(-1, 2)).coeffs
        ones, rest = _root_split(a, 1)
        minus_ones, rest = _root_split(rest, -1)
        assert (ones, minus_ones, rest) == (81, 81, (1, -2))


class TestRootsBetween:
    def test_matches_a_direct_count(self):
        """Seeded products c * prod (z - r)^m with integer roots at, just
        inside and just outside both endpoints and far away, m <= 4, and
        a content factor c of either sign."""
        rng = random.Random(31)
        for _ in range(300):
            lo = rng.randint(-12, 12)
            hi = lo + rng.randint(1, 9)
            pool = [lo - 1, lo, lo + 1, hi - 1, hi, hi + 1,
                    rng.randint(-40, 40)]
            roots = {rng.choice(pool): rng.randint(1, 4)
                     for _ in range(rng.randint(0, 5))}
            a = (rng.choice((1, -1, 6, -10)),)
            for r, m in roots.items():
                for _ in range(m):
                    a = _mul(a, (-r, 1))
            want = sum(m for r, m in roots.items() if lo < r < hi)
            assert _roots_between(a, lo, hi) == want, (a, lo, hi)

    def test_dyadic_endpoints(self):
        """With a scale s the endpoints are lo / 2^s and hi / 2^s: seeded
        products of factors 2^t z - r, whose roots r / 2^t sit at, next
        to and away from both endpoints."""
        rng = random.Random(37)
        for _ in range(200):
            s = rng.randint(1, 6)
            lo = rng.randint(-40, 40)
            hi = lo + rng.randint(1, 20)
            pool = [Fraction(x, 1 << s)
                    for x in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1)]
            pool.append(Fraction(rng.randint(-90, 90), 1 << rng.randint(0, 8)))
            roots = {rng.choice(pool): rng.randint(1, 3)
                     for _ in range(rng.randint(0, 5))}
            a = (rng.choice((1, -3)),)
            for r, m in roots.items():
                for _ in range(m):
                    a = _mul(a, (-r.numerator, r.denominator))
            want = sum(m for r, m in roots.items()
                       if Fraction(lo, 1 << s) < r < Fraction(hi, 1 << s))
            assert _roots_between(a, lo, hi, s) == want, (a, lo, hi, s)


class TestGcdSquarefree:
    def test_gcd_of_powers(self):
        a = P(-1, 1) ** 3 * P(1, 1)
        b = P(-1, 1) ** 2 * P(2, 1)
        assert poly_gcd(a, b) == P(-1, 1) ** 2

    def test_gcd_coprime(self):
        assert poly_gcd(P(1, 1), P(1, -1)).degree == 0

    def test_squarefree_split(self):
        p = P(-1, 1) ** 3 * P(1, 1) ** 2 * P(1, 0, 1)
        factors = dict((m, f) for f, m in squarefree_factors(p))
        assert primitive_part(factors[3]) == P(-1, 1)
        assert primitive_part(factors[2]) == P(1, 1)
        assert primitive_part(factors[1]) == P(1, 0, 1)

    def test_squarefree_random_reconstruction(self):
        rng = random.Random(7)
        for _ in range(60):
            p = IntPoly((rng.randint(1, 3),))
            for _ in range(rng.randint(1, 3)):
                base = IntPoly([rng.randint(-3, 3)
                                for _ in range(rng.randint(2, 4))])
                if base.degree < 1:
                    continue
                p = p * base ** rng.randint(1, 3)
            if p.degree < 1:
                continue
            recon = IntPoly((1,))
            for f, m in squarefree_factors(p):
                recon = recon * f ** m
            # equal up to a rational constant: cross-multiply primitives
            assert primitive_part(recon) == primitive_part(p)

    def test_unit_roots_stripped_like_yun(self):
        rng = random.Random(31)
        for trial in range(20):
            p = IntPoly((rng.choice((-2, 1, 3)),))
            for _ in range(rng.randint(1, 3)):
                base = IntPoly([rng.randint(-3, 3)
                                for _ in range(rng.randint(2, 4))])
                if base.degree >= 1:
                    p = p * base ** (rng.randint(1, 3) if trial % 2 else 1)
            p = p * P(-1, 1) ** rng.randint(0, 60)
            p = p * P(1, 1) ** rng.randint(0, 60)
            assert squarefree_factors(p) == yun_split(p)

    def test_unit_roots_only(self):
        zm1, zp1 = P(-1, 1), P(1, 1)
        assert squarefree_factors(zm1 ** 5) == [(zm1, 5)]
        assert squarefree_factors(-3 * zp1 ** 7) == [(zp1, 7)]
        assert squarefree_factors(zm1 ** 3 * zp1 ** 3) == [(P(-1, 0, 1), 3)]
        assert squarefree_factors(zm1 * zp1 ** 4) == [(zm1, 1), (zp1, 4)]

    def test_constant_and_zero(self):
        assert squarefree_factors(P(-6)) == []
        with pytest.raises(ValueError):
            squarefree_factors(P())

    def test_leading_coefficient_divisible_by_first_prime(self):
        """The first modulus 2^61 - 1 is skipped; the split still agrees
        with Yun's algorithm and the oracle."""
        m61 = (1 << _MERSENNE_EXPONENTS[0]) - 1
        rest = P(1, 3, m61)
        assert squarefree_factors(rest) == [(rest, 1)]
        assert poly_gcd(rest, rest.derivative()) == P(1)
        for p in (rest, rest * P(2, 1, 1) ** 2):
            p = p * P(-1, 1) ** 3 * P(1, 1) ** 2
            assert squarefree_factors(p) == yun_split(p) == oracle_split(p)

    def test_certificate_undecided(self):
        """A square, whose gcd with its derivative is not constant, and a
        leading coefficient that the first three moduli all divide."""
        square = P(2, 1, 1) ** 2 * P(5, 1)
        assert poly_gcd(square, square.derivative()) == P(2, 1, 1)
        assert squarefree_factors(square) == [(P(5, 1), 1), (P(2, 1, 1), 2)]
        lead = 1
        for e in _MERSENNE_EXPONENTS[:3]:
            lead *= (1 << e) - 1
        rest = P(1, 3, lead)
        assert poly_gcd(rest, rest.derivative()) == P(1)
        assert squarefree_factors(rest) == [(rest, 1)]
        p = rest ** 2 * P(3, 0, 1)
        assert squarefree_factors(p) == yun_split(p) == oracle_split(p) \
            == [(P(3, 0, 1), 1), (rest, 2)]

    def test_random_splits_match_oracle(self):
        rng = random.Random(11)
        for _ in range(150):
            p = IntPoly((rng.choice((-2, 1, 3)),))
            for _ in range(rng.randint(1, 3)):
                base = random_poly(rng, 4, big=rng.random() < 0.2)
                if base.degree >= 1:
                    p = p * base ** rng.randint(1, 3)
            p = p * P(-1, 1) ** rng.randint(0, 3) * P(1, 1) ** rng.randint(0, 3)
            assert squarefree_factors(p) == yun_split(p) == oracle_split(p)


class TestLacunarySplit:
    def test_lacunary_splits_match_yun_and_oracle(self):
        rng = random.Random(23)
        for trial in range(100):
            p, _ = lacunary_poly(rng, 2 + trial % 5)
            assert squarefree_factors(p) == yun_split(p) == oracle_split(p)

    def test_euclid_runs_on_the_base(self, monkeypatch):
        """Every gcd of the split of c * z^j * g(z^k) is taken modulo a
        listed Mersenne prime, on polynomials of degree at most deg g."""
        seen = []
        real = intpoly._gcd_mod

        def spy(a, b, p):
            seen.append((max(len(a), len(b)) - 1, p))
            return real(a, b, p)

        monkeypatch.setattr(intpoly, "_gcd_mod", spy)
        rng = random.Random(29)
        runs = 0
        for trial in range(100):
            k = 2 + trial % 5
            p, zeros = lacunary_poly(rng, k)
            seen.clear()
            factors = squarefree_factors(p)
            runs += bool(seen)
            assert all(degree <= (p.degree - zeros) // k
                       and modulus == (1 << modulus.bit_length()) - 1
                       and modulus.bit_length() in _MERSENNE_EXPONENTS
                       for degree, modulus in seen)
            recon = IntPoly((1,))
            for f, m in factors:
                recon = recon * f ** m
            assert recon == primitive_part(p)
        assert runs > 50

    def test_cycle_zeta_is_split_as_one_minus_u(self, monkeypatch):
        """(1 - z^n)^2 is (1 - u)^2 at u = z^n: synthetic division
        finishes it, and no gcd is taken."""
        monkeypatch.setattr(intpoly, "_gcd_mod", None)
        for n in (3, 10, 101):
            unit = IntPoly((-1,) + (0,) * (n - 1) + (1,))
            assert squarefree_factors(unit ** 2) == [(unit, 2)]
            assert squarefree_factors(P(0, 0, 0, -5) * unit ** 2) == \
                [(unit, 2), (P(0, 1), 3)]

    def test_zero_roots(self):
        z = P(0, 1)
        assert squarefree_factors(z) == [(z, 1)]
        assert squarefree_factors(-7 * z ** 4) == [(z, 4)]
        assert squarefree_factors(z ** 2 * P(2, 1)) == [(P(2, 1), 1), (z, 2)]
        assert squarefree_factors(z ** 2 * P(-1, 0, 1) ** 2) == \
            [(P(0, -1, 0, 1), 2)]


class TestPackedEuclid:
    MODULI = [(1 << e) - 1 for e in _MERSENNE_EXPONENTS if e <= 127] \
        + [(1 << 521) - 1]

    def test_random_pairs(self):
        """Common factors, coefficients at or above p and negative ones."""
        rng = random.Random(41)
        for p in self.MODULI:
            for _ in range(60):
                g = [rng.randint(-2 * p, 3 * p)
                     for _ in range(rng.randint(1, 5))]
                a = _mul(tuple(g), tuple(rng.randint(-p, p) for _ in
                                         range(rng.randint(1, 25))))
                b = _mul(tuple(g), tuple(rng.randint(-9, 9) for _ in
                                         range(rng.randint(1, 25))))
                if not a or not b or not a[-1] % p or not b[-1] % p:
                    continue
                assert _gcd_mod(a, b, p) == list_gcd_mod(a, b, p)
                assert _gcd_mod(b, a, p) == list_gcd_mod(b, a, p)

    def test_leading_coefficient_vanishes_mod_p(self):
        """a = b * u + r with the top of r a multiple of p: the remainder
        drops one degree, or several when more of its top vanishes, and
        quotients with zero coefficients skip division steps."""
        rng = random.Random(43)
        for p in self.MODULI:
            for drop in range(1, 5):
                for _ in range(8):
                    b = tuple(rng.randint(-p, p) for _ in range(6)) + (1,)
                    u = tuple(rng.choice((0, 0, 1, -1, p + 2, -p))
                              for _ in range(rng.randint(1, 6))) + (3,)
                    r = tuple(rng.randint(1, p - 1) for _ in range(6 - drop)) \
                        + tuple(rng.choice((p, -p, 2 * p))
                                for _ in range(drop))
                    a = _add(_mul(b, u), r)
                    assert _gcd_mod(a, b, p) == list_gcd_mod(a, b, p)
                    # a common factor behind the vanishing remainder
                    f = (rng.randint(-p, p), rng.randint(-p, p), 1)
                    a2, b2 = _mul(a, f), _mul(b, f)
                    image = _gcd_mod(a2, b2, p)
                    assert image == list_gcd_mod(a2, b2, p)
                    assert len(image) >= 3

    def test_long_divisions_fold_between_steps(self):
        """a = b * u + r with b = z^520 - 1 (plus multiples of p), every
        quotient coefficient p - 1 and r = z^8 - 1: each of the 561
        division steps adds (p - 1) * 2p to 519 slots, and a slot of
        2e + 10 bits (e = 107, 127) holds 512 of them at most.  The gcd
        is r itself, so a slot that overflows shows."""
        rng = random.Random(47)
        r = (-1,) + (0,) * 7 + (1,)
        for p in self.MODULI:
            b = (-1 + p * rng.randint(-2, 2),) \
                + tuple(p * rng.randint(-2, 2) for _ in range(519)) + (1,)
            a = _add(_mul(b, (p - 1,) * 561), r)
            assert _gcd_mod(a, b, p) == list_gcd_mod(a, b, p) \
                == (p - 1,) + r[1:]

    def test_constant_and_equal_inputs(self):
        for p in self.MODULI:
            assert _gcd_mod((5, 7, 2), (p + 3,), p) == (1,)
            assert _gcd_mod((4,), (5, 7, 2), p) == (1,)
            a = (2 * p - 1, 0, -3)
            assert _gcd_mod(a, a, p) == list_gcd_mod(a, a, p)


class TestPolyGcd:
    def test_matches_prs_oracle_on_random_products(self):
        """Products g*u, g*v, with a 200-bit g in every fourth trial (three
        moduli) and lc(a) divisible by 2^61 - 1 in every ninth."""
        m61 = (1 << _MERSENNE_EXPONENTS[0]) - 1
        rng = random.Random(5)
        for trial in range(1200):
            g = random_poly(rng, 4, big=trial % 4 == 0)
            a = g * random_poly(rng, 5) * (1 if trial % 9 else P(1, m61))
            b = g * random_poly(rng, 5, big=trial % 7 == 0)
            assert poly_gcd(a, b) == poly_gcd(b, a) == prs_gcd(a, b)

    def test_zero_and_constants(self):
        a = P(6, -4, 2)
        assert poly_gcd(a, P()) == poly_gcd(P(), a) == P(3, -2, 1)
        assert poly_gcd(-a, P()) == P(3, -2, 1)
        assert poly_gcd(P(), P()) == P()
        assert poly_gcd(P(-6), P()) == P(1)
        assert poly_gcd(a, P(4)) == poly_gcd(P(7), P(21)) == P(1)

    def test_coprime_pairs(self):
        assert poly_gcd(P(1, 0, 1), P(-1, 0, 1)) == P(1)
        assert poly_gcd(P(2, 3) ** 5, P(3, 2) ** 4) == P(1)
        assert poly_gcd(P(1, 1) * 10 ** 40, P(1, 2) * 7) == P(1)

    def test_leading_coefficients_scale_the_images(self):
        g = P(-5, 0, 6)
        a, b = g * P(1, 4), g * P(3, 0, 9) * P(2, 1)
        assert poly_gcd(a, b) == g
        assert poly_gcd(-a, b) == g

    def test_first_modulus_dividing_a_leading_coefficient(self):
        m61 = (1 << _MERSENNE_EXPONENTS[0]) - 1
        g = P(2, 1, 1)
        for a, b in ((g * P(1, m61), g * P(2, 3)),
                     (g * P(1, 1), g * P(3, 4 * m61)),
                     (P(1, m61), P(7, m61 * 3))):
            assert poly_gcd(a, b) == prs_gcd(a, b)

    def test_unlucky_moduli(self):
        """Modulo m = 2^e - 1 the cofactors z - 1 and z - 1 - m share a
        root, so that image has an extra factor.  After an unlucky first
        modulus a constant image still proves coprimality and a lower one
        restarts; an unlucky second modulus is skipped."""
        m61, m89 = ((1 << e) - 1 for e in _MERSENNE_EXPONENTS[:2])
        assert poly_gcd(P(-1, 1), P(-1 - m61, 1)) == P(1)
        a, b = P(2, 1) * P(-1, 1), P(2, 1) * P(-1 - m61, 1)
        assert poly_gcd(a, b) == prs_gcd(a, b) == P(2, 1)
        a, b = a * P(-1, 3) ** 2, b * P(-1, 3) ** 2 * P(5, 0, 1)
        assert poly_gcd(a, b) == prs_gcd(a, b)
        g = P(3 ** 63, 1, -(7 ** 35))  # two moduli: 61 bits are too few
        a, b = g * P(-1, 1), g * P(-1 - m89, 1)
        assert poly_gcd(a, b) == prs_gcd(a, b) == -g

    def test_large_coefficients_need_three_moduli(self, monkeypatch):
        moduli = []
        real = intpoly._gcd_mod

        def counting(a, b, p):
            moduli.append(p)
            return real(a, b, p)

        monkeypatch.setattr(intpoly, "_gcd_mod", counting)
        g = P(3 ** 130 + 1, -(5 ** 70), 2 ** 170 + 3)  # up to 207 bits
        a, b = g * P(1, 1, 3), g * P(-2, 7)
        assert poly_gcd(a, b) == prs_gcd(a, b) == g
        assert len(moduli) == 3  # 257 bits cover the lift, 150 do not

    def test_moduli_are_mersenne_primes(self):
        exponents = [e for e in _MERSENNE_EXPONENTS if e <= 4423]
        assert exponents == [61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
                             3217, 4253, 4423]
        assert all(lucas_lehmer(e) for e in exponents)
        assert not lucas_lehmer(67) and not lucas_lehmer(4421)
        assert list(_MERSENNE_EXPONENTS) == sorted(set(_MERSENNE_EXPONENTS))


class TestSeries:
    def test_triangle_series(self):
        assert log_derivative_series(P(1, 0, 0, -2, 0, 0, 1), 6) == \
            [0, 0, 6, 0, 0, 6]

    def test_constant_one(self):
        assert log_derivative_series(P(1), 5) == [0, 0, 0, 0, 0]

    def test_worked_graph_series(self):
        assert log_derivative_series(P(1, -2, 0, 0, 1), 4) == [2, 4, 8, 12]

    def test_requires_unit_constant_term(self):
        with pytest.raises(SeriesError):
            log_derivative_series(P(2, 1), 3)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            log_derivative_series(P(1, -1), -1)
        assert log_derivative_series(P(1, -1), 0) == []

    def test_bool_horizon_rejected(self):
        """True is not read as horizon 1."""
        with pytest.raises(TypeError, match="horizon True is not an int"):
            log_derivative_series(P(1, -1), True)

    def test_mobius_triangle(self):
        assert mobius_invert([0, 0, 6]) == [0, 0, 2]

    def test_mobius_loops(self):
        assert mobius_invert([6]) == [6]

    def test_mobius_zeros(self):
        assert mobius_invert([0, 0, 0, 0]) == [0, 0, 0, 0]

    def test_mobius_rejects_inconsistency(self):
        with pytest.raises(SeriesError):
            mobius_invert([1, 0])  # one length-1 class, none at length 2
        with pytest.raises(SeriesError):
            mobius_invert([0, 1])  # N_2 = 1 is not reachable

    def test_mobius_rejects_non_int_counts(self):
        """A float or a bool count raises TypeError naming it, rather
        than passing through or failing as a SeriesError."""
        for counts, bad in (([3.0], "3.0"), ([6.0, 6], "6.0"),
                            ([True], "True"), ([True, 2.0], "True"),
                            ([0, 0, 6.0], "6.0")):
            with pytest.raises(TypeError, match=f"count {bad} is not an int"):
                mobius_invert(counts)

    def test_mobius_inverts_series(self):
        rng = random.Random(3)
        for _ in range(50):
            pi = [rng.randint(0, 4) for _ in range(6)]
            counts = [sum(d * pi[d - 1] for d in range(1, m + 1)
                          if m % d == 0) for m in range(1, 7)]
            assert mobius_invert(counts) == pi


def digest_grid_graphs():
    """(name, graph) for the graphs of tests/test_same_output.py's grid,
    in its order, each named by the options that select it."""
    return [(" ".join(options), graph) for options, graph, _ in grid_graphs()]


# A26-A30 and D14-D19 with loops: find_roots fails its power-sum check on
# them, so primes printed "-" for every ratio before R_G was isolated
ROOT_SEARCH_FAILS = ([f"--ade A{k} --loops" for k in range(26, 31)]
                     + [f"--ade D{k} --loops" for k in range(14, 20)])


def sturm_count(p, x):
    """The number of distinct real roots of p in (0, x], by Sturm's
    theorem in rational arithmetic: no code shared with the isolator."""
    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            for j in range(len(b)):
                a[len(a) - len(b) + j] -= q * b[j]
            a.pop()
            while a and not a[-1]:
                a.pop()
        return a

    seq = [[Fraction(c) for c in p.coeffs],
           [Fraction(i * c) for i, c in enumerate(p.coeffs)][1:]]
    while len(seq[-1]) > 1 and (r := rem(seq[-2], seq[-1])):
        seq.append([-c for c in r])

    def variations(t):
        values = [v for v in (sum(c * t ** i for i, c in enumerate(s))
                              for s in seq) if v]
        return sum((u > 0) != (v > 0) for u, v in zip(values, values[1:]))

    return variations(Fraction(0)) - variations(x)


def random_root_poly(rng, i):
    """A seeded random nonzero polynomial for the least-root property
    test, of kind i % 5: a lacunary c z^j g(z^k) with repeated factors
    and roots at 1 and -1; a product of repeated random factors spread to
    g(z^k); a dyadic root times a random factor; a root halfway between
    two floats near 1/2, or one 2^-e off it, times 1 + z^2 and powers of
    z - 1; or repeated roots 1/a next to the roots of a cubic."""
    kind = i % 5
    if kind == 0:
        return lacunary_poly(rng, 1 + i % 4)[0]
    if kind == 1:
        p = P(rng.choice((-2, 1, 3)))
        for _ in range(rng.randint(1, 4)):
            low = [rng.randint(-20, 20) for _ in range(rng.randint(1, 4))]
            factor = P(*low) + P(0, 0, 0, 0, rng.choice((-1, 1)))
            p = p * factor ** rng.randint(1, 2)
        k = rng.randint(1, 4)
        spread = [0] * (k * p.degree + 1)
        spread[::k] = p.coeffs
        return IntPoly(spread)
    if kind == 2:
        e = rng.randint(1, 60)
        return P(-rng.randrange(1, 2 ** e), 2 ** e) * P(
            *[rng.randint(-5, 5) for _ in range(rng.randint(1, 4))], 1)
    if kind == 3:
        e = rng.randint(54, 70)
        tie = (2 ** 53 + 2 * rng.randrange(2 ** 20) + 1) << e - 54
        return (P(-tie - rng.choice((0, 0, 1, -1)), 2 ** e) * P(1, 0, 1)
                * P(-1, 1) ** rng.randint(0, 2))
    a = rng.randint(2, 50)
    return P(1, -a) ** rng.randint(1, 2) * P(a * a + rng.randint(-3, 3), -1, 0,
                                             rng.choice((-2, -1, 1, 2)))


def bisection_root(p):
    """The least root of p in (0, 1] as least_positive_root rounded it
    before its Illinois steps, the reference of the property test: each
    square-free factor g(z^k) of p, its least root in (0, 1) isolated by
    _least_interval and the point 1 tested, bisected on (0, 1] by exact
    signs of g(z^k), each term of g scaled to an integer on its own,
    until both ends round to one float."""
    roots = []
    for f, _ in squarefree_factors(p):
        f = f.coeffs
        f = f[next(i for i, c in enumerate(f) if c):]
        if len(f) < 2:
            continue
        k = math.gcd(*[i for i, c in enumerate(f) if c])
        g = f[::k]
        if not sum(g):
            roots.append(1.0)
        interval = _least_interval(g)
        if interval is None:
            continue
        lo, hi, s = interval
        if lo == hi:
            g, lo, hi, s = (lo, -2 ** s), 0, 1, 0
        a, b, t = 0, 1, 0  # the root lies in (a, b] / 2^t
        while a / 2 ** t != b / 2 ** t:
            m, a, b, t = a + b, 2 * a, 2 * b, t + 1
            u, shift = m ** k, t * k  # m^k = u / 2^shift
            if u << s <= lo << shift:
                a = m
            elif u << s >= hi << shift:
                b = m
            elif not (value := sum(c * u ** i << shift * (len(g) - 1 - i)
                                   for i, c in enumerate(g))):
                a = b = m
            elif (value > 0) == (g[0] > 0):
                a = m
            else:
                b = m
        roots.append(a / 2 ** t)
    return min(roots, default=None)


class TestLeastPositiveRoot:
    def test_equals_find_roots_on_the_digest_grid(self):
        """On every grid graph and catalog quiver where find_roots
        succeeds, R_G is the least positive pole that analyze reports (inf
        for a forest); on the 150 of them with a prime within the horizon
        6 it is also their smallest pole modulus bit for bit.  find_roots
        fails on the 11 graphs of ROOT_SEARCH_FAILS alone."""
        quivers = [(f"quiver {rec.id}", quiver_to_graph(rec.quiver))
                   for rec in load_catalog()]
        equal, failed = 0, []
        for name, g in digest_grid_graphs() + quivers:
            try:
                report = analyze(g)
            except NumericalError:
                failed.append(name)
                continue
            r_g = least_positive_root(report.zeta_inverse)
            assert report.r_g == (math.inf if r_g is None else r_g), name
            if enumerate_primes(g, 6).delta:
                assert r_g == report.poles.min_modulus(), name
                equal += 1
        assert (equal, failed) == (150, ROOT_SEARCH_FAILS)

    def test_equals_find_roots_on_random_mixed_graphs(self):
        """Seeded random mixed graphs with arrow self-loops and reciprocal
        pairs; a graph with no cycle has zeta^-1 = 1, no root and an
        infinite R_G."""
        rng = random.Random(73)
        cycles = 0
        for _ in range(400):
            report = analyze(MixedGraph.from_dict(random_graph(rng)))
            zi = report.zeta_inverse
            r_g = least_positive_root(zi)
            if zi.degree == 0:
                assert r_g is None and report.r_g == math.inf
                continue
            assert r_g == report.r_g == report.poles.min_modulus(), zi
            cycles += 1
        assert cycles > 350

    def test_decimal_and_sturm_references_where_find_roots_fails(self):
        """R_G is the float nearest to the root that 60-digit decimal
        Newton finds on its square-free factor, and Sturm counts put the
        least positive root of every factor at R_G or above it: none in
        (0, R_G (1 - 2^-50)] and one in (0, R_G (1 + 2^-50)]."""
        graphs = dict(digest_grid_graphs())
        for name in ROOT_SEARCH_FAILS:
            zi = zeta_inverse(graphs[name])
            r_g = least_positive_root(zi)
            below = Fraction(r_g) * (1 - Fraction(1, 2 ** 50))
            above = Fraction(r_g) * (1 + Fraction(1, 2 ** 50))
            holding = []
            for f, _ in squarefree_factors(zi):
                assert sturm_count(f, below) == 0, name
                if sturm_count(f, above):
                    holding.append(f)
            assert len(holding) == 1, name
            assert decimal_root(holding[0], complex(r_g)) == r_g, name

    def test_kotani_sunada_bounds(self):
        """1/q <= R_G <= 1/p, exactly, on seeded undirected multigraphs
        (loops and parallel edges) of minimum degree p + 1 >= 2 and
        maximum degree q + 1 (Kotani and Sunada 2000)."""
        rng = random.Random(41)
        tested = 0
        while tested < 150:
            n = rng.randint(1, 7)
            g = MixedGraph(n, edges=tuple(
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(n, 3 * n))))
            profile = degree_profile(g)
            if profile.min_degree < 2:
                continue
            p, q = profile.min_degree - 1, profile.max_degree - 1
            r_g = least_positive_root(zeta_inverse(g))
            assert 1 / q <= r_g <= 1 / p, (g, r_g)
            assert analyze(g).kotani_sunada_ok is True, g
            tested += 1

    def test_dimer_345_has_r_g_one_quarter(self):
        """Its zeta^-1 has the factor 1 - 16 z^2 (u = z^2), whose rational
        root 1/16 the bisection meets as a midpoint."""
        assert least_positive_root(zeta_inverse(dimer_graph([3, 4, 5]))) == 0.25

    def test_root_at_a_bisection_midpoint(self):
        """(1 - 2u)(1 - u - u^2) has roots 1/2 and 0.618... in (0, 1), so
        the first split lands on the root 1/2 exactly; as g(z^2) the
        answer is the float nearest to sqrt(1/2)."""
        g = P(1, -2) * P(1, -1, -1)
        assert _least_interval(g.coeffs) == (1, 1, 1)
        assert least_positive_root(g) == 0.5
        spread = P(1, 0, -3, 0, 1, 0, 2)  # g(z^2)
        assert least_positive_root(spread) == math.sqrt(0.5)

    def test_roots_halfway_between_floats_round_to_even(self):
        """1/2 + 2^-54 lies halfway between 1/2 and the float above it,
        and 1/2 + 3 * 2^-54 halfway between two floats whose even one is
        1/2 + 2^-52, as float() rounds them."""
        for odd, want in ((1, 0.5), (3, 0.5 + 2 ** -52)):
            assert (2 ** 53 + odd) / 2 ** 54 == want
            linear = P(-(2 ** 53 + odd), 2 ** 54)
            assert least_positive_root(linear) == want
            assert least_positive_root(linear * P(1, 0, 1)) == want
            assert least_positive_root(linear * P(2, 0, 1)) == want

    def test_thousand_cycle_gives_one(self):
        """(1 - z^1000)^2 is split as (u - 1)^2 with u = z^1000 and pinned
        by exact signs of u - 1, never spread: R_G is 1.0, where the
        smallest pole modulus that find_roots gives is one ulp below.
        analyze reads R_G off the least positive pole, so it gives 1.0
        too, on the 1000-cycle and on the 31- and 41-cycles, whose
        smallest pole modulus is also one ulp below 1."""
        zi = zeta_inverse(ade_graph("A", 999))
        assert zi == P(-1, *[0] * 999, 1) ** 2
        assert least_positive_root(zi) == 1.0
        assert find_roots(zi).min_modulus() == math.nextafter(1.0, 0)
        for n in (30, 40, 999):
            assert analyze(ade_graph("A", n)).r_g == 1.0, n

    def test_doubled_perron_root(self):
        """Two disjoint copies of E6 with loops square zeta^-1, so the
        Perron root has multiplicity 2; R_G is one copy's."""
        e6 = ade_graph("E", 6, with_loops=True)
        n = e6.node_count
        two = MixedGraph(2 * n, edges=tuple(
            (i + c * n, j + c * n) for c in range(2) for i, j in e6.edges))
        zi = zeta_inverse(two)
        assert zi == zeta_inverse(e6) ** 2
        r_g = least_positive_root(zeta_inverse(e6))
        assert least_positive_root(zi) == r_g
        above = Fraction(r_g) * (1 + Fraction(1, 2 ** 50))
        assert [m for f, m in squarefree_factors(zi)
                if sturm_count(f, above)] == [2]
        assert r_g == 0.20211947281334475

    def test_no_root_in_the_unit_interval_gives_none(self):
        """A constant, a root at 0, roots at -1, complex roots with and
        without sign variations (1 - z + z^2 has two, and no real root),
        and real roots above 1 alone."""
        for p in (P(5), P(0, 3), P(1, 1) ** 3 * P(1, 1, 1), P(1, -1, 1),
                  P(1, -1, 1) * P(0, 0, 1) * P(2, 1), P(1, 0, 1) ** 2,
                  P(-3, 1) * P(-5, 1) * P(1, 0, 1), P(-5, 0, 1),
                  P(7, -1) * P(1, -1, 1), P(0, 0, -2, 1) * P(1, 1)):
            assert least_positive_root(p) is None, p

    def test_root_one_inside_a_factor(self):
        """squarefree_factors multiplies the factor z - 1 into the factor
        of the same multiplicity, so the root 1 can share a factor with
        roots above 1 alone, or with a smaller root, also as g(z^k)."""
        for p, want in ((P(-1, 1) * P(-5, 0, 1), 1.0),
                        (P(-1, 1) * P(-3, 1), 1.0),
                        (P(-1, 0, 1) * P(-5, 0, 1), 1.0),
                        (P(-1, 0, 0, 1) * P(-3, 0, 0, 1), 1.0),
                        (P(-1, 1) * P(-1, 2) * P(-5, 1), 0.5),
                        (P(-1, 0, 1) * P(-1, 0, 4) * P(-5, 0, 1), 0.5)):
            assert len(squarefree_factors(p)) == 1, p
            assert least_positive_root(p) == want, p

    def test_roots_beyond_the_floats_near_zero(self):
        """A root below half the least subnormal float rounds to 0.0, and
        one among the subnormals to its subnormal."""
        for power, want in ((1100, 0.0), (1074, 5e-324), (1070, 2.0 ** -1070)):
            assert least_positive_root(P(1, -(2 ** power)) * P(1, 0, 1)) == want

    def test_seeded_polynomials_against_the_references(self):
        """On 1200 seeded random polynomials (random_root_poly: repeated
        factors, g(z^k) spreads, roots at 1, dyadic roots and roots at or
        next to a tie), least_positive_root equals the per-factor
        bisection of bisection_root, float for float.  On every eighth,
        the Sturm counts of the polynomial less its root 0 put no root in
        (0, R (1 - 2^-50)] and one in (0, R (1 + 2^-50)], and R is the
        float nearest to the root that 60-digit decimal Newton finds on
        the square-free part, or, when the root is halfway between R and
        a neighbour, float() of it; with no R, Sturm finds no root in
        (0, 1].  The zero polynomial has no least root, and a lacunary
        g(z^1000) whose g has a root far below every float still gives
        the float nearest its 1000th root."""
        rng = random.Random(39)
        polys = [random_root_poly(rng, i) for i in range(1200)]
        rooted = 0
        for p in polys:
            r_g = least_positive_root(p)
            assert r_g == bisection_root(p), p
            rooted += r_g is not None
        assert rooted > 1000
        for p in polys[::8]:
            r_g = least_positive_root(p)
            q = IntPoly(p.coeffs[min(i for i, c in enumerate(p.coeffs) if c):])
            if r_g is None:
                assert sturm_count(q, Fraction(1)) == 0, p
                continue
            below = Fraction(r_g) * (1 - Fraction(1, 2 ** 50))
            above = Fraction(r_g) * (1 + Fraction(1, 2 ** 50))
            assert sturm_count(q, below) == 0 and sturm_count(q, above), p
            halfway = [(Fraction(r_g) + Fraction(math.nextafter(r_g, x))) / 2
                       for x in (0, 2)]
            ties = [x for x in halfway if not q(x)]
            if ties:  # decimal Newton misses a tie by a few digits
                assert float(ties[0]) == r_g, p
                continue
            v = exact_div(q, poly_gcd(q, q.derivative()))
            assert decimal_root(v, complex(r_g)) == r_g, p
        with pytest.raises(ValueError, match="zero polynomial"):
            least_positive_root(P())
        # three arrows per step of a directed 1000-cycle: u = z^1000 has
        # the root 3^-1000, and z the root 1/3
        assert least_positive_root(P(1, *[0] * 999, -3 ** 1000)) == 1 / 3

    def test_rounding_evaluations_on_the_census_workload(self, monkeypatch):
        """_nearest_float makes at most 20 exact evaluations
        (_scaled_value calls, of g at u or at m^k) on each of the census
        workload's six zeta^-1, where the bisection by exact signs of
        g(z^k) made 56 to 58."""
        count, made = [0], []
        scaled_value = intpoly._scaled_value
        nearest_float = intpoly._nearest_float

        def counting(*args):
            count[0] += 1
            return scaled_value(*args)

        def rounding(*args):
            before = count[0]
            result = nearest_float(*args)
            made.append(count[0] - before)
            return result

        monkeypatch.setattr(intpoly, "_scaled_value", counting)
        monkeypatch.setattr(intpoly, "_nearest_float", rounding)
        for g, _ in census_workload_graphs():
            zi = zeta_inverse(g)
            assert least_positive_root(zi) == bisection_root(zi), g
        assert len(made) == 6 and max(made) <= 20, made
