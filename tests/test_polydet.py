import random
from fractions import Fraction
from functools import cache
from math import isqrt

import pytest

from zetaforge.intpoly import _MERSENNE_EXPONENTS, IntPoly, _norm
from zetaforge import polydet
from zetaforge.polydet import (_BATCH, _SEARCH_BITS, _SWEEP_WIDTH,
                               _degree_order, _frontier_det, _interpolated_det,
                               _matching_size, _open_width, _prime_below,
                               char_poly, det_poly)
from zetaforge.zeta import zeta_inverse

from test_zeta import dense_family, random_mixed


def P(*coeffs):
    return IntPoly(coeffs)


def sparse(m):
    """The private routes' input: one {column: coefficient tuple} dict per
    row of an IntPoly matrix, nonzero entries only."""
    return [{j: e.coeffs for j, e in enumerate(row) if e} for row in m]


def det_cofactor(m):
    """Cofactor expansion along the first row.  A minor with an all-zero
    column is 0, and equal minors are expanded once, which keeps banded
    matrices of 40 rows cheap."""
    @cache
    def expand(m):
        if len(m) == 1:
            return m[0][0]
        if not all(any(col) for col in zip(*m)):
            return IntPoly(())
        total = IntPoly(())
        for j, head in enumerate(m[0]):
            if not head:
                continue
            minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
            term = head * expand(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    return expand(tuple(map(tuple, m)))


def fraction_det(m):
    """Determinant of an integer matrix by Gaussian elimination over the
    rationals."""
    n = len(m)
    work = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if work[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            det = -det
        det *= work[k][k]
        for i in range(k + 1, n):
            factor = work[i][k] / work[k][k]
            for j in range(k, n):
                work[i][j] -= factor * work[k][j]
    assert det.denominator == 1
    return int(det)


def per_point_det(rows, n):
    """The wide route one point at a time, in the natural order, with one
    modular inverse per pivot and an update of every row: the reference
    that the lockstep elimination is checked against.  It keeps the
    looser sizes of the route's first form, so that it shares neither
    bound with it: deg + 1 points with deg the sum of the rows' largest
    entry degrees, and a modulus of at least 62 bits."""
    if not all(rows):
        return ()
    lengths = [max(map(len, row.values())) for row in rows]
    deg = sum(lengths) - n
    square = 1
    for row in rows:
        square *= sum(sum(map(abs, ent)) ** 2 for ent in row.values())
    bound = isqrt(square - 1) + 1
    e = max(62, (2 * bound).bit_length() + 1)
    p, c = _prime_below(e)
    e = p.bit_length()
    init = (p - 1) * sum(deg ** k for k in range(max(lengths)))
    w = (init + (n - 1) * 2 * p * (p - 1)).bit_length()
    folds, v = 0, (1 << w) - 1
    while v >= 2 * p:
        v = (v >> e) * c + (1 << e) - 1
        folds += 1
    ones = sum(1 << (w * j) for j in range(n))
    low, high = ones * ((1 << e) - 1), ones * ((1 << (w - e)) - 1)
    mask = (1 << w) - 1
    packed = []
    for row, length in zip(rows, lengths):
        cs = [0] * length
        for j, ent in row.items():
            for k, a in enumerate(ent):
                cs[k] += a % p << w * j
        packed.append(cs[::-1])
    coef = []
    for x in range(deg + 1):
        m = []
        for cs in packed:
            acc = cs[0]
            for a in cs[1:]:
                acc = acc * x + a
            m.append(acc)
        det, twop = 1, 2 * p * ones
        while m:
            i = next((i for i, r in enumerate(m) if (r & mask) % p), None)
            if i is None:
                det = 0
                break
            t = m.pop(i)
            if i & 1:
                det = -det
            for _ in range(folds):
                t = ((t >> e) & high) * c + (t & low)
            pivot = (t & mask) % p
            det = det * pivot % p
            inv, comp = pow(pivot, -1, p), twop - t
            m = [(r + (r & mask) * inv % p * comp) >> w for r in m]
            twop >>= w
        coef.append(det)
    for j in range(1, deg + 1):
        inv = pow(j, -1, p)
        for k in range(deg, j - 1, -1):
            coef[k] = (coef[k] - coef[k - 1]) * inv % p
    acc = [coef[deg]]
    for k in range(deg - 1, -1, -1):
        acc = [(coef[k] - k * acc[0]) % p] + [
            (acc[i - 1] - k * acc[i]) % p for i in range(1, len(acc))
        ] + [acc[-1]]
    half = p >> 1
    return _norm([a - p if a > half else a for a in acc])


def sylvester(n):
    """The Sylvester-Hadamard matrix of order n, a power of two."""
    h = [[1]]
    while len(h) < n:
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    return h


def simultaneous_permutation(rows, perm):
    """The sparse rows with row and column i moved to perm[i]."""
    out = [None] * len(rows)
    for i, row in enumerate(rows):
        out[perm[i]] = {perm[j]: e for j, e in row.items()}
    return out


def wide_rows(graphs, monkeypatch):
    """The sparse rows that zeta_inverse of each graph hands to the wide
    route, with their size."""
    seen = []
    interpolated = polydet._interpolated_det

    def spy(rows, n):
        seen.append((rows, n))
        return interpolated(rows, n)

    monkeypatch.setattr(polydet, "_interpolated_det", spy)
    for g in graphs:
        zeta_inverse(g)
    monkeypatch.undo()
    return seen


def points_used(monkeypatch):
    """The list to which each point that the wide route evaluates its rows
    at is appended, in order."""
    xs = []
    rows_at = polydet._rows_at

    def spy(packed, x):
        xs.append(x)
        return rows_at(packed, x)

    monkeypatch.setattr(polydet, "_rows_at", spy)
    return xs


def moduli_used(monkeypatch):
    """The list to which each exponent e that the wide route asks
    _prime_below for is appended."""
    es = []
    prime_below = polydet._prime_below

    def spy(e):
        es.append(e)
        return prime_below(e)

    monkeypatch.setattr(polydet, "_prime_below", spy)
    return es


def max_matching(adjacent, n):
    """The most rows that take distinct columns, row i taking one of
    adjacent[i], by brute force over the sets of taken columns: the
    reference for _matching_size."""
    reached = {0}
    for columns in adjacent:
        reached |= {used | 1 << c for used in reached for c in columns
                    if not used >> c & 1}
    return max(used.bit_count() for used in reached)


def full_matrix(rng, degrees):
    """A matrix of IntPolys with no zero entry, the entries of row i of
    degree degrees[i] exactly, so its support orders naturally."""
    return [[P(*[rng.randint(-3, 3) for _ in range(d)],
               rng.choice((-2, -1, 1, 2))) for _ in degrees]
            for d in degrees]


def assert_is_det(got, m, deg):
    """got is det m: both have degree at most deg, and they agree at the
    deg + 1 points -1, ..., -(deg + 1), none of the wide route's own."""
    assert got.degree <= deg
    for x in range(-1, -deg - 2, -1):
        assert got(x) == fraction_det([[e(x) for e in row] for row in m]), x


def random_matrix(rng, n, density=0.7, max_deg=3):
    def entry():
        if rng.random() > density:
            return IntPoly(())
        return IntPoly([rng.randint(-3, 3)
                        for _ in range(rng.randint(1, max_deg + 1))])
    return [[entry() for _ in range(n)] for _ in range(n)]


class TestDetPoly:
    def test_worked_bundle(self):
        m = [[P(1), P(0, -1)],
             [P(0, -2, 0, 1), P(1, -2, 2)]]
        assert det_poly(m) == P(1, -2, 0, 0, 1)

    def test_identity(self):
        m = [[P(1) if i == j else P() for j in range(4)] for i in range(4)]
        assert det_poly(m) == P(1)

    def test_triangle_bundle(self):
        # 3-cycle: I - A z + z^2 I with A the circulant(0,1,1)
        m = [[P(1, 0, 1) if i == j else P(0, -1) for j in range(3)]
             for i in range(3)]
        assert det_poly(m) == P(1, 0, 0, -2, 0, 0, 1)

    def test_int_entries_accepted(self):
        assert det_poly([[2, 1], [1, 2]]) == P(3)
        assert det_poly([[P(), 1], [1, 0]]) == P(-1)

    def test_empty_matrix_has_determinant_one(self):
        assert det_poly([]) == 1 and char_poly([]) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_poly([[P(1), P(2)]])

    def test_float_and_fraction_entries_rejected(self):
        # int() used to truncate them: det_poly([[2.7]]) gave 2; a dense
        # zero was dropped unconverted: det_poly([[0.0, 1], [1, 0]]) gave -1
        for bad in ([[2.7]], [[P(1), 0.5], [0, 1]], [[Fraction(3)]],
                    [{0: 1.0}], [[0.0, 1], [1, 0]], [[1, 0], [Fraction(0), 1]],
                    [[P(1), 0.0], [P(), P(1)]]):
            with pytest.raises(TypeError):
                det_poly(bad)

    def test_bool_entries_and_column_keys_rejected(self):
        # index() takes False as 0 and True as 1: det_poly([{False: 5}])
        # gave 5 and det_poly([[True]]) gave 1
        for f in (det_poly, char_poly):
            for bad in ([{False: 5}], [{0: 1}, {True: 2}]):
                with pytest.raises(ValueError, match="column index outside"):
                    f(bad)
            for bad in ([[True]], [[1, 0], [0, False]], [{0: True}],
                        [{0: 1}, {1: False}]):
                with pytest.raises(TypeError, match="bool"):
                    f(bad)
        # the entry is built by the rule det_poly applies to a bare int
        with pytest.raises(TypeError, match="bool"):
            det_poly([[IntPoly([True])]])

    def test_zero_row(self):
        m = [[P(), P()], [P(1), P(2)]]
        assert not det_poly(m)

    def test_matches_cofactor_on_random_small(self):
        rng = random.Random(11)
        for _ in range(250):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n)
            assert det_poly(m) == det_cofactor(m)

    def test_frontier_and_bareiss_agree(self):
        # the sweep against integer Bareiss at points plus interpolation
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(2, 7)
            m = random_matrix(rng, n, density=0.5)
            rows = sparse(m)
            a = _frontier_det(rows, n)
            b = _interpolated_det(rows, n)
            assert a == b == det_cofactor(m).coeffs

    def test_routes_agree_on_degenerate_matrices(self):
        rng = random.Random(17)
        z2_minus_z = P(0, -1, 1)  # vanishes at the points 0 and 1
        for _ in range(30):
            n = rng.randint(2, 7)
            zero_row = random_matrix(rng, n)
            zero_row[rng.randrange(n)] = [P() for _ in range(n)]
            zero_col = random_matrix(rng, n)
            col = rng.randrange(n)
            for row in zero_col:
                row[col] = P()
            vanishing = random_matrix(rng, n, density=0.8, max_deg=1)
            vanishing[0] = [e * z2_minus_z for e in vanishing[0]]
            for m in (zero_row, zero_col, vanishing):
                rows = sparse(m)
                expect = det_cofactor(m).coeffs
                assert _frontier_det(rows, n) == expect
                assert _interpolated_det(rows, n) == expect

    def test_interpolation_matches_sweep_up_to_14(self):
        rng = random.Random(23)
        for n in range(8, 15):
            m = random_matrix(rng, n, density=0.5)
            rows = sparse(m)
            assert _interpolated_det(rows, n) == _frontier_det(rows, n)

    def test_route_chosen_by_open_width(self, monkeypatch):
        def refuse(rows, n):
            raise AssertionError("route not expected for this shape")

        rng = random.Random(29)
        dense = [[P(rng.randint(1, 3), rng.randint(-3, 3)) for _ in range(12)]
                 for _ in range(12)]
        monkeypatch.setattr(polydet, "_frontier_det", refuse)
        assert det_poly(dense).degree <= 12
        monkeypatch.undo()
        monkeypatch.setattr(polydet, "_interpolated_det", refuse)
        band = [[P(1, 1) if abs(i - j) <= 1 else P() for j in range(40)]
                for i in range(40)]
        assert det_poly(band) == -(P(1, 1) ** 40)

    def test_dense_fallback_matches_fraction_elimination(self):
        # 15x15 dense integers are wider than the sweep's open-width
        # limit, so this runs through evaluation and interpolation
        rng = random.Random(19)
        n = 15
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        got = det_poly([[P(x) for x in row] for row in m])
        assert got == P(fraction_det(m))

    def test_mapping_rows_match_dense_rows_on_both_routes(self, monkeypatch):
        rng = random.Random(43)
        for n, density in ((1, 0.9), (5, 0.6), (8, 0.5), (10, 0.3)):
            for _ in range(3):
                m = random_matrix(rng, n, density=density)
                mapped = [{j: e for j, e in enumerate(row) if e or
                           rng.random() < 0.3} for row in m]
                ints = [[rng.randint(-2, 2) if rng.random() < density else 0
                         for _ in range(n)] for _ in range(n)]
                int_mapped = [{j: x for j, x in enumerate(row) if x}
                              for row in ints]
                expect = det_poly(m)
                for route in ("_frontier_det", "_interpolated_det"):
                    # force each route by widening or closing the sweep
                    monkeypatch.setattr(polydet, "_SWEEP_WIDTH",
                                        n if route == "_frontier_det" else -1)
                    assert det_poly(mapped) == det_poly(m) == expect
                    assert det_poly(int_mapped) == det_poly(ints)
                    assert char_poly(int_mapped) == char_poly(ints)
                monkeypatch.undo()

    def test_column_index_outside_range_rejected(self):
        for bad in (3, -1, 7):
            with pytest.raises(ValueError):
                det_poly([{0: P(1)}, {1: P(1)}, {bad: P(1)}])
            with pytest.raises(ValueError):
                char_poly([{0: 1}, {bad: 2}, {}])

    def test_large_cycle_is_fast(self):
        # banded-plus-corner matrix: the frontier sweep must stay linear-ish
        n = 60
        rows = [[P() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            rows[i][i] = P(1, 0, 1)
            for j in ((i + 1) % n, (i - 1) % n):
                rows[i][j] = rows[i][j] + P(0, -1)
        expect = [0] * (2 * n + 1)
        expect[0], expect[n], expect[2 * n] = 1, -2, 1
        assert det_poly(rows) == IntPoly(expect)


def strong_probable_prime(m, bases):
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        if a == m:  # a small modulus that is one of the bases
            return True
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


FIRST_20_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                   53, 59, 61, 67, 71)


class TestModularRoute:
    """The wide route works modulo one prime p = 2^e - c above 2B and
    above twice the degree bound, with B Hadamard's bound on the rows of
    coefficient 1-norms; each row is packed into one int, and the pivot
    row is folded below 2p per step."""

    def test_coefficients_equal_to_plus_and_minus_the_bound(self):
        # B = 2^k - 1 lies above half of the largest prime below 2^(k+1),
        # so a modulus sized to B instead of 2B lifts +B and -B wrongly
        for k in (63, 100, 200):
            b = (1 << k) - 1
            assert _interpolated_det([{0: (b,)}], 1) == (b,)
            assert _interpolated_det([{0: (0, -b)}], 1) == (0, -b)
            assert _interpolated_det([{1: (0, 1)}, {0: (b,)}], 2) == (0, -b)
        factors = (7, 7, 73, 127, 337, 92737, 649657)  # 2^63 - 1
        b, n = (1 << 63) - 1, len(factors)
        diag = [{i: (0,) * (i % 2) + (a,)} for i, a in enumerate(factors)]
        assert _interpolated_det(diag, n) == (0,) * (n // 2) + (b,)
        # a 7-cycle permutation is even: the sign comes from the entries
        cyclic = [{(i + 1) % n: (-a,)} for i, a in enumerate(factors)]
        assert _interpolated_det(cyclic, n) == (-b,)

    def test_hadamard_matrices_meet_the_bound(self):
        # |det| of a Sylvester-Hadamard matrix of order n is n^(n/2),
        # Hadamard's bound itself: 2^32 at n = 16 and 2^80 at n = 32, so
        # the modulus is only just above 2|det|; row i times z^a_i and
        # column j times z^b_j moves that coefficient, and a row swap
        # flips it
        rng = random.Random(43)
        for n in (16, 32):
            h = sylvester(n)
            det = fraction_det(h)
            assert abs(det) == n ** (n // 2)
            for sign, m in ((1, h), (-1, [h[1], h[0], *h[2:]])):
                rows = [{j: (x,) for j, x in enumerate(row)} for row in m]
                assert _interpolated_det(rows, n) == (sign * det,)
                a = [rng.randrange(3) for _ in range(n)]
                b = [rng.randrange(3) for _ in range(n)]
                rows = [{j: (0,) * (a[i] + b[j]) + (x,)
                         for j, x in enumerate(row)}
                        for i, row in enumerate(m)]
                assert _interpolated_det(rows, n) == \
                    (0,) * (sum(a) + sum(b)) + (sign * det,)

    def test_signed_monomials_on_a_hadamard_pattern(self):
        # entries +-z^k with k free: the determinant agrees with Fraction
        # elimination at deg + 1 points, so the polynomials are equal
        rng = random.Random(47)
        n = 16
        h = sylvester(n)
        m = [[P(*(0,) * rng.randrange(3), x) for x in row] for row in h]
        got = IntPoly(_interpolated_det(sparse(m), n))
        assert got.degree <= 2 * n
        for x in range(2 * n + 1):
            assert got(x) == fraction_det([[e(x) for e in row]
                                           for row in m]), x

    def test_points_where_the_determinant_vanishes(self):
        # column 0 vanishes at the points 0 and 2, and the (0, 0) entry
        # also at 1 and 3: the pivot search finds no row at 0 and 2 and a
        # later row than the first at 1 and 3
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(3, 6)
            m = random_matrix(rng, n, density=0.8, max_deg=2)
            for row in m:
                row[0] = row[0] * P(0, -2, 1)
            m[0][0] = P(0, -2, 1) * P(3, -4, 1)
            rows = sparse(m)
            expect = det_cofactor(m).coeffs
            assert _interpolated_det(rows, n) == expect
            assert _frontier_det(rows, n) == expect

    def test_entries_beyond_two_to_the_200(self):
        # e far above 62, and each pivot row needs more than one fold; the
        # entries are full and of one size, so each n needs one prime
        rng = random.Random(37)
        for n in (3, 4):
            for _ in range(6):
                m = [[IntPoly([rng.choice((-1, 1)) * (
                    (1 << 200) + rng.getrandbits(190)) for _ in range(2)])
                      for _ in range(n)] for _ in range(n)]
                rows = sparse(m)
                expect = det_cofactor(m).coeffs
                assert _interpolated_det(rows, n) == expect
                assert _frontier_det(rows, n) == expect

    def test_mersenne_modulus_beyond_the_prime_search(self, monkeypatch):
        # 16 tridiagonal rows with entries near 2^200 need a modulus of
        # over 3000 bits, where the prime search ran for a minute: above
        # _SEARCH_BITS the modulus is the least Mersenne prime 2^q - 1
        # with q >= e, and the folds must use q, not e
        assert _prime_below(_SEARCH_BITS + 1) == ((1 << 1279) - 1, 1)
        assert _prime_below(3217) == ((1 << 3217) - 1, 1)
        assert _prime_below(3218) == ((1 << 4253) - 1, 1)
        es = moduli_used(monkeypatch)
        rng = random.Random(67)

        def big():
            return IntPoly([rng.choice((-1, 1)) * ((1 << 200)
                            + rng.getrandbits(190)) for _ in range(2)])

        for corners in (False, True):
            m = random_banded(rng, 16, 1, corners, entry=big)
            rows = sparse(m)
            expect = det_cofactor(m).coeffs
            assert _interpolated_det(rows, 16) == expect
            assert _frontier_det(rows, 16) == expect
        assert len(es) == 2
        moduli = [_prime_below(e) for e in es]
        assert all(c == 1 and p.bit_length() in _MERSENNE_EXPONENTS
                   and p.bit_length() > _SEARCH_BITS for p, c in moduli)

    def test_modulus_sized_by_the_degree(self, monkeypatch):
        # diag(1 + z^k) and diag(1 + z^k, 1 + z^60): B = 2 and 4, so 2B
        # alone would ask for a prime below 2^4 or 2^5, and the points
        # 0, ..., deg would repeat mod p; the modulus must exceed 2 deg
        es = moduli_used(monkeypatch)
        for k in range(1, 61):
            one = P(1, *(0,) * (k - 1), 1)
            for m in ([[one]], [[one, P()], [P(), P(1, *(0,) * 59, 1)]]):
                rows = sparse(m)
                expect = det_cofactor(m)
                got = _interpolated_det(rows, len(m))
                assert got == expect.coeffs
                p, _ = _prime_below(es[-1])
                assert p > 2 * expect.degree
                if expect.degree >= 16:  # 2B needs at most 4 bits here
                    assert es[-1] == expect.degree.bit_length() + 2
        three = [[P(1, *(0,) * (k - 1), 1) if i == j else P()
                  for j in range(3)] for i, k in enumerate((20, 40, 60))]
        assert _interpolated_det(sparse(three), 3) == \
            (1, *(0,) * 19, 1, *(0,) * 19, 1, *(0,) * 19, 2, *(0,) * 19,
             1, *(0,) * 19, 1, *(0,) * 19, 1)

    def test_narrower_modulus_on_the_dense_graphs(self, monkeypatch):
        # the n = 16 graphs of the dense family: 2B needs fewer than 62
        # bits, so the modulus is narrower than the old 62-bit floor;
        # per_point_det keeps that floor and its points, and agrees
        cases = wide_rows(dense_family()[:5], monkeypatch)
        es = moduli_used(monkeypatch)
        for rows, n in cases:
            assert n == 16
            assert _interpolated_det(rows, n) == per_point_det(rows, n)
        assert len(es) == 5 and max(es) < 62

    def test_many_small_matrices(self):
        # with three rows or more a slot takes two updates before it is
        # read, so a slot too narrow by one bit carries into its neighbour
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(2, 4)
            m = random_matrix(rng, n, density=0.9, max_deg=2)
            assert _interpolated_det(sparse(m), n) == det_cofactor(m).coeffs

    def test_one_by_one_and_zero_rows(self):
        assert _interpolated_det([{0: (5,)}], 1) == (5,)
        assert _interpolated_det([{0: (-2, 0, 7)}], 1) == (-2, 0, 7)
        for n in (1, 3, 13):
            for at in {0, n // 2, n - 1}:
                rows = [{j: (1, i + j) for j in range(n)} for i in range(n)]
                rows[at] = {}
                assert _interpolated_det(rows, n) == ()

    def test_prime_below_is_a_strong_probable_prime(self):
        known = {62: 57, 63: 25, 64: 59, 128: 159, 256: 189, 1024: 105}
        for e, c in known.items():
            assert _prime_below(e) == ((1 << e) - c, c)
        # every exponent up to 256, then a spread up to 1100: the search
        # costs about 0.4 s per exponent near 1000
        for e in [*range(3, 257), 384, 512, 768, 1024, 1100]:
            p, c = _prime_below(e)
            assert p == (1 << e) - c and 0 < c < 1 << 20
            assert strong_probable_prime(p, FIRST_20_PRIMES), e

    def test_prime_below_is_the_largest_strong_probable_prime(self):
        # the search goes down the odd numbers below 2^e and must stop
        # at the first one that the first twenty prime bases pass
        for e in range(3, 257):
            c = 1
            while not strong_probable_prime((1 << e) - c, FIRST_20_PRIMES):
                c += 2
            assert _prime_below(e) == ((1 << e) - c, c), e


class TestLockstep:
    """The wide route eliminates up to _BATCH evaluation points in
    lockstep, with rows and columns sorted by their degree in the
    symmetric support, with one modular inverse per step for all the
    points of a batch, and a row whose slot 0 is 0 only shifts."""

    def test_degree_order(self):
        # the symmetric support has the pairs 0-1, 0-2, 0-3, 2-3 and 3-4:
        # 0 is a hub by its column alone, and 2-3 is one pair although
        # both of its entries are nonzero; diagonal entries count for
        # nothing.  Leaves 1 and 4 (degree 1) come first, then 2 (degree
        # 2), then the hubs 0 and 3 (degree 3), each tie in index order
        rows = [{0: (1,)}, {0: (1,)}, {0: (1,), 3: (0, 2)},
                {0: (1,), 2: (1,), 3: (4,)}, {3: (1,), 4: (1,)}]
        assert _degree_order(rows, 5) == [1, 4, 2, 0, 3]
        # no off-diagonal entry: every degree is 0, so the natural order
        assert _degree_order([{i: (1,)} for i in range(4)], 4) == [0, 1, 2, 3]
        # a full matrix: one degree, so the natural order again
        full = [{j: (1,) for j in range(3)} for _ in range(3)]
        assert _degree_order(full, 3) == [0, 1, 2]

    def test_matches_per_point_elimination_on_graph_matrices(
            self, monkeypatch):
        rng = random.Random(71)
        graphs = dense_family()
        for _ in range(230):
            n = rng.randint(12, 20)
            graphs.append(random_mixed(n, rng, rng.randint(n, 3 * n),
                                       rng.randint(0, n)))
        # a graph whose core is smaller may leave the wide route, so 230
        # graphs are drawn to keep more than 150 wide matrices
        cases = wide_rows(graphs, monkeypatch)
        assert len(cases) > 150
        for rows, n in cases:
            assert _interpolated_det(rows, n) == per_point_det(rows, n), n

    def test_point_counts_around_the_batch_size(self):
        # deg + 1 points: one, one short of a batch, a batch, one point
        # into the second batch and one into the third
        rng = random.Random(79)
        n = 6
        for points in (1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1):
            deg = points - 1
            m = full_matrix(rng, [deg // n + (i < deg % n)
                                  for i in range(n)])
            rows = sparse(m)
            got = _interpolated_det(rows, n)
            assert got == per_point_det(rows, n)
            assert_is_det(IntPoly(got), m, deg)

    def test_singular_at_some_points(self, monkeypatch):
        # row 0 vanishes at 3 and at B + 1, and column 5 at 2B: the
        # points in each of three batches lose their pivot at one step or
        # another while the rest of their batch goes on.  Every row's top
        # coefficient lies in column 5, so the degree bound is 4n + 3,
        # the degree itself, and it reaches the third batch
        rng = random.Random(83)
        n = 8
        m = full_matrix(rng, [4] * n)
        m[0] = [e * P(-3, 1) * P(-_BATCH - 1, 1) for e in m[0]]
        for row in m:
            row[5] = row[5] * P(-2 * _BATCH, 1)
        deg = 4 * n + 3
        assert deg >= 2 * _BATCH
        xs = points_used(monkeypatch)
        rows = sparse(m)
        got = IntPoly(_interpolated_det(rows, n))
        assert xs == list(range(deg + 1))
        assert got.coeffs == per_point_det(rows, n)
        assert got.degree == deg
        assert got(3) == got(_BATCH + 1) == got(2 * _BATCH) == 0
        assert_is_det(got, m, deg)

    def test_identically_singular(self):
        # every row nonzero, every point without a pivot at some step
        rng = random.Random(89)
        n = 9
        m = full_matrix(rng, [4] * n)
        m[6] = list(m[1])
        rows = sparse(m)
        assert all(rows)
        assert _interpolated_det(rows, n) == () == per_point_det(rows, n)
        m = full_matrix(rng, [4] * n)
        m[8] = [a + b for a, b in zip(m[2], m[5])]
        assert _interpolated_det(sparse(m), n) == ()

    def test_pivots_below_the_first_row(self):
        # every entry is nonzero, so the order is the natural one; column
        # 0 vanishes in its first rows at some points, so the first pivot
        # is row 1 at the points 1 and B + 1, row 2 at 2 and row 3 at
        # B + 3: odd positions flip the sign, in both batches
        rng = random.Random(97)
        n = 7
        m = full_matrix(rng, [3] * n)
        for i, roots in enumerate(({1, 2, _BATCH + 1, _BATCH + 3},
                                   {2, _BATCH + 3}, {_BATCH + 3})):
            m[i][0] = P(rng.choice((-2, -1, 1, 2)))
            for r in roots:
                m[i][0] = m[i][0] * P(-r, 1)
        deg = 4 + 3 * (n - 1)
        assert deg >= _BATCH + 3
        rows = sparse(m)
        got = _interpolated_det(rows, n)
        assert got == per_point_det(rows, n)
        assert_is_det(IntPoly(got), m, deg)

    def test_simultaneous_permutation_keeps_the_determinant(self):
        # both routes on seeded permutations of sweep-shaped and wide
        # matrices: the determinant under the degree order must not
        # depend on the labels
        rng = random.Random(101)
        for n in (3, 6, 9, 12):
            for _ in range(4):
                rows = sparse(random_matrix(rng, n, density=0.5))
                expect = _frontier_det(rows, n)
                moved = simultaneous_permutation(rows, rng.sample(range(n),
                                                                  n))
                assert _interpolated_det(rows, n) == expect
                assert _interpolated_det(moved, n) == expect
                assert _frontier_det(moved, n) == expect
        band = random_banded(rng, 30, 2, corners=True)
        dense = random_matrix(rng, 14, density=0.8, max_deg=2)
        for m in (band, dense):
            n = len(m)
            expect = det_poly(m)
            mapped = [{j: e for j, e in enumerate(row) if e} for row in m]
            for perm in (range(n - 1, -1, -1), rng.sample(range(n), n)):
                moved = simultaneous_permutation(mapped, list(perm))
                assert det_poly(moved) == expect


class TestDegreeBound:
    """The wide route evaluates at the deg + 1 points 0, ..., deg with
    deg = sum d_i - n + nu: d_i is the largest entry degree of row i, and
    nu the size of a maximum matching of the rows to the columns on the
    support of L, the matrix of the rows' z^d_i coefficients.  Below 0,
    the determinant is 0 and no point is evaluated."""

    @staticmethod
    def bound(rows, n):
        lengths = [max(map(len, row.values())) for row in rows]
        tops = [[j for j, ent in row.items() if len(ent) == top]
                for row, top in zip(rows, lengths)]
        return sum(lengths) - 2 * n + max_matching(tops, n)

    def check(self, m, monkeypatch):
        """The route on m against cofactors, and the sweep where the
        dispatch would take it; the points are 0, ..., bound, and the
        bound is at least the degree.  Returns (determinant, bound)."""
        n = len(m)
        rows = sparse(m)
        expect = det_cofactor(m).coeffs
        xs = points_used(monkeypatch)
        got = _interpolated_det(rows, n)
        monkeypatch.undo()
        assert got == expect
        if _open_width(rows, n) <= _SWEEP_WIDTH:
            assert _frontier_det(rows, n) == expect
        if not all(rows):
            assert xs == []
            return got, None
        bound = self.bound(rows, n)
        assert xs == list(range(bound + 1))
        assert len(got) - 1 <= bound
        return got, bound

    def test_random_sparse_matrices(self, monkeypatch):
        rng = random.Random(103)
        below = 0  # cases whose bound is below the old sum of d_i
        for _ in range(150):
            n = rng.randint(1, 12)
            m = random_matrix(rng, n, density=rng.choice((0.2, 0.4, 0.7)),
                              max_deg=rng.randint(0, 3))
            _, bound = self.check(m, monkeypatch)
            if bound is not None:
                lengths = [max(map(len, row.values())) for row in sparse(m)]
                below += bound < sum(lengths) - n
        assert below >= 20

    def test_top_coefficients_in_one_column(self, monkeypatch):
        # L has one nonzero column: nu = 1, and deg = 2n - n + 1
        rng = random.Random(107)
        for n in (2, 3, 5, 8):
            m = [[P(rng.choice((-2, -1, 1, 2)), rng.randint(-3, 3),
                    rng.choice((-1, 1)))]
                 + [P(rng.randint(-3, 3), rng.choice((-1, 1)))
                    for _ in range(n - 1)] for _ in range(n)]
            got, bound = self.check(m, monkeypatch)
            assert bound == n + 1

    def test_singular_top_with_a_perfect_matching(self, monkeypatch):
        # L = [[1, 1], [1, 1]] is singular but its support matches: the
        # bound keeps deg = 2, the degree is 1
        m = [[P(1, 1), P(0, 1)], [P(0, 1), P(2, 1)]]
        got, bound = self.check(m, monkeypatch)
        assert (got, bound) == ((2, 3), 2)

    def test_top_without_a_perfect_matching(self, monkeypatch):
        # both rows have their top coefficient in column 0 only: nu = 1
        m = [[P(0, 1), P(1)], [P(0, 1), P(2)]]
        got, bound = self.check(m, monkeypatch)
        assert (got, bound) == ((0, 1), 1)
        # a 4 x 4 with its top coefficients in columns 0 and 1 only
        m = [[P(1, 2), P(0, 0, 1), P(3), P(1)],
             [P(0, 1), P(2, 0, 1), P(1), P(0, 1)],
             [P(0, 0, 3), P(1), P(2), P(1)],
             [P(0, 0, 1), P(1, 1), P(1), P(5)]]
        got, bound = self.check(m, monkeypatch)
        assert bound == 2 + 2 + 2 + 2 - 4 + 2

    def test_identically_zero(self, monkeypatch):
        # two equal constant rows: L = M has a perfect matching, one point
        got, bound = self.check([[P(1), P(2)], [P(1), P(2)]], monkeypatch)
        assert (got, bound) == ((), 0)
        # constant rows whose support does not match: no point at all
        m = [[P(1), P(), P()], [P(2), P(), P(1)], [P(3), P(), P(4)]]
        got, bound = self.check(m, monkeypatch)
        assert (got, bound) == ((), -1)

    def test_points_on_a_dense_graph(self, monkeypatch):
        # mixed16_0 of the benchmark's dense family: 38 + 1 points, where
        # the sum of the largest entry degrees would give 42 + 1
        [(rows, n)] = wide_rows(dense_family()[:1], monkeypatch)
        lengths = [max(map(len, row.values())) for row in rows]
        assert (n, sum(lengths) - n) == (16, 42)
        xs = points_used(monkeypatch)
        got = _interpolated_det(rows, n)
        assert xs == list(range(39))
        assert len(got) - 1 == 38
        assert got == per_point_det(rows, n)

    def test_matching_size(self):
        rng = random.Random(109)
        for _ in range(300):
            n = rng.randint(1, 9)
            adjacent = [rng.sample(range(n), rng.randint(0, min(n, 3)))
                        for _ in range(n)]
            assert _matching_size(adjacent, n) == max_matching(adjacent, n)
        # row i takes column i + 1 first, and the last row's one column
        # is taken: its augmenting path runs back through all 3000 rows,
        # beyond the recursion limit of a recursive search
        n = 3000
        adjacent = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
        assert _matching_size(adjacent, n) == n
        assert _matching_size(adjacent[:-1] + [[]], n) == n - 1


class TestCharPoly:
    def test_triangle_adjacency(self):
        assert char_poly([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == P(-2, -3, 0, 1)

    def test_one_by_one(self):
        assert char_poly([[7]]) == P(-7, 1)

    def test_bipartite_double_edge(self):
        assert char_poly([[0, 4], [4, 0]]) == P(-16, 0, 1)

    def test_monic_and_trace(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            cp = char_poly(m)
            assert cp.degree == n
            assert cp.leading_coefficient == 1
            trace = sum(m[i][i] for i in range(n))
            assert cp[n - 1] == -trace

    def test_cycles_match_the_closed_form(self):
        # det(xI - A) of the n-cycle is L_n(x) - 2, with L_0 = 2, L_1 = x
        # and L_k = x L_(k-1) - L_(k-2)
        x = P(0, 1)
        lucas = [P(2), x]
        for _ in range(2, 1001):
            lucas.append(x * lucas[-1] - lucas[-2])
        for n in (3, 4, 99, 201, 400, 1000):
            cycle = [{(i - 1) % n: 1, (i + 1) % n: 1} for i in range(n)]
            assert char_poly(cycle) == lucas[n] - 2, n

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly([[1, 2, 3], [4, 5, 6]])

    def test_float_and_fraction_entries_rejected(self):
        # int() used to truncate them: [[1.9, 0], [0, 1]] gave 1 - 2z + z^2;
        # [[0.0, 1], [1, 0]] gave -1 + z^2
        for bad in ([[1.9, 0], [0, 1]], [[Fraction(1, 2)]], [{0: 2.0}],
                    [[0.0, 1], [1, 0]], [[0, 1], [1, Fraction(0)]]):
            with pytest.raises(TypeError):
                char_poly(bad)


def random_banded(rng, n, band, corners=False, entry=None):
    """An n x n IntPoly matrix with nonzeros only within band of the
    diagonal, and in the two far corners when corners is set (the
    wrap-around of a cycle)."""
    def default():
        return IntPoly([rng.randint(-3, 3)
                        for _ in range(rng.randint(1, 3))])
    entry = entry or default
    m = [[IntPoly(()) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(max(0, i - band), min(n, i + band + 1)):
            if rng.random() < 0.8:
                m[i][j] = entry()
    if corners:
        m[0][n - 1], m[n - 1][0] = entry(), entry()
    return m


class TestTwoEndedSweep:
    """Long banded matrices, 12 to 40 rows with corners, zero rows and
    columns, or entries beyond 2**200, through the one top-down sweep,
    whose state polynomials grow in degree with every row swept."""

    def test_matches_interpolation_and_cofactors_across_the_split(self):
        rng = random.Random(53)
        for n in (12, 15, 16, 17, 21, 30, 40):
            for band, corners in ((1, False), (1, True), (2, False),
                                  (2, True)):
                m = random_banded(rng, n, band, corners)
                rows = sparse(m)
                expect = det_cofactor(m).coeffs
                assert _frontier_det(rows, n) == expect, (n, band, corners)
                assert _interpolated_det(rows, n) == expect

    def test_zero_row_or_column_in_either_half(self):
        rng = random.Random(59)
        n = 24
        for at in (2, n // 2 - 1, n // 2, n - 1):
            m = random_banded(rng, n, 2, corners=True)
            m[at] = [IntPoly(()) for _ in range(n)]
            assert _frontier_det(sparse(m), n) == ()
            m = random_banded(rng, n, 2, corners=True)
            for row in m:
                row[at] = IntPoly(())
            assert _frontier_det(sparse(m), n) == ()

    def test_identically_zero_with_every_row_nonzero(self):
        rng = random.Random(61)
        n, h = 20, 10
        # rows 0..h-2 and row h live on the columns 0..h-2: ten rows on
        # nine columns, so no term survives
        support = [range(max(0, i - 1), min(h - 1, i + 2))
                   for i in range(h - 1)]
        support += [range(h - 1, h + 1), range(h - 3, h - 1)]
        support += [range(i - 1, min(n, i + 2)) for i in range(h + 1, n)]
        m = [[IntPoly([rng.randint(1, 3), rng.randint(-3, 3)])
              if j in cols else IntPoly(()) for j in range(n)]
             for cols in support]
        rows = sparse(m)
        assert all(rows)
        assert _frontier_det(rows, n) == () == _interpolated_det(rows, n)
        # two equal rows, far apart: the products cancel in the sum
        m = random_banded(rng, n, 2, corners=True)
        m[n - 3] = list(m[2])
        rows = sparse(m)
        assert all(rows)
        assert _frontier_det(rows, n) == () == _interpolated_det(rows, n)

    def test_entries_beyond_two_to_the_200(self):
        # against cofactors alone: the wide route's modulus has thousands
        # of bits here (see TestModularRoute), and at 23 rows it takes
        # seconds
        rng = random.Random(67)

        def big():
            return IntPoly([rng.choice((-1, 1)) * ((1 << 200)
                            + rng.getrandbits(190)) for _ in range(2)])

        for n in (16, 23):
            for corners in (False, True):
                m = random_banded(rng, n, 1, corners, entry=big)
                assert _frontier_det(sparse(m), n) == det_cofactor(m).coeffs
