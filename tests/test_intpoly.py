import random
from fractions import Fraction

import pytest

from zetaforge.intpoly import (_CERT_PRIMES, DivisibilityError, IntPoly,
                               SeriesError, _add, _certified_squarefree,
                               _mul, _norm, _yun,
                               exact_div, log_derivative_series,
                               mobius_invert, poly_gcd, primitive_part,
                               squarefree_factors)


def P(*coeffs):
    return IntPoly(coeffs)


def yun_split(p):
    """Yun's algorithm on the whole primitive part, with no shortcut."""
    pp = primitive_part(p)
    return _yun(pp) if pp.degree >= 1 else []


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

    def test_ring_ops(self):
        a = P(1, 2)
        b = P(0, 0, 3)
        assert (a + b).coeffs == (1, 2, 3)
        assert (a - a).coeffs == ()
        assert (a * b).coeffs == (0, 0, 3, 6)
        assert (2 * a).coeffs == (2, 4)
        assert (a - 1).coeffs == (0, 2)

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

    def test_random_products_divide_back(self):
        rng = random.Random(42)
        for _ in range(200):
            a = IntPoly(rng.randint(-5, 5) for _ in range(rng.randint(1, 6)))
            b = IntPoly(rng.randint(-5, 5) for _ in range(rng.randint(1, 6)))
            if a.is_zero or b.is_zero:
                continue
            assert exact_div(a * b, b) == a


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
        rest = P(1, 3, _CERT_PRIMES[0])
        assert _certified_squarefree(rest.coeffs)
        for p in (rest, rest * P(2, 1, 1) ** 2):
            p = p * P(-1, 1) ** 3 * P(1, 1) ** 2
            assert squarefree_factors(p) == yun_split(p)

    def test_certificate_undecided(self):
        # a square, and a leading coefficient that every prime divides
        assert not _certified_squarefree((P(2, 1, 1) ** 2 * P(5, 1)).coeffs)
        assert not _certified_squarefree(
            (P(1, 3, _CERT_PRIMES[0] * _CERT_PRIMES[1] * _CERT_PRIMES[2])
             ).coeffs)


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

    def test_mobius_inverts_series(self):
        rng = random.Random(3)
        for _ in range(50):
            pi = [rng.randint(0, 4) for _ in range(6)]
            counts = [sum(d * pi[d - 1] for d in range(1, m + 1)
                          if m % d == 0) for m in range(1, 7)]
            assert mobius_invert(counts) == pi
