import cmath
import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from zetaforge import rootfind
from zetaforge.catalog import ade_graph
from zetaforge.graphs import matrices
from zetaforge.intpoly import IntPoly
from zetaforge.polydet import char_poly
from zetaforge.rootfind import (_ANGLE_OFFSET, _MAX_ITER, NumericalError,
                                _float_coeffs, _horner2, _kth_roots, _starts,
                                find_roots)
from zetaforge.zeta import zeta_inverse


def P(*coeffs):
    return IntPoly(coeffs)


def newton_polish(p, z0, steps=60):
    d = p.derivative()
    z = z0
    for _ in range(steps):
        dz = p(z) / d(z)
        z -= dz
        if abs(dz) < 1e-15:
            break
    return z


class TestFindRoots:
    def test_cubic_circle(self):
        rs = find_roots(P(1, 0, 0, -27))
        assert rs.total_multiplicity == 3
        for mod in rs.moduli():
            assert abs(mod - 1 / 3) < 1e-12

    def test_double_root(self):
        rs = find_roots(P(1, -2, 1))
        assert len(rs) == 1
        (root, mult), = rs
        assert mult == 2
        assert abs(root - 1) < 1e-12

    def test_quartic_residuals_and_newton_oracle(self):
        p = P(1, -2, 0, 0, 1)
        rs = find_roots(p)
        assert rs.total_multiplicity == 4
        assert rs.residual_bound < 1e-10
        for root, _ in rs:
            polished = newton_polish(p, root)
            assert abs(root - polished) < 1e-10

    def test_residual_bound_is_the_rounding_bound(self):
        """2^-52 * max|z|, finite however large the roots."""
        assert find_roots(P(-10 ** 150, 1)).residual_bound == 2.0 ** -52 * 1e150
        rs = find_roots(P(1, 0, 0, -27))
        assert rs.residual_bound == 2.0 ** -52 * max(rs.moduli())
        assert find_roots(P(0, 0, 3)).residual_bound == 0.0
        assert find_roots(P(5)).residual_bound == 0.0

    def test_zero_roots_stripped(self):
        rs = find_roots(P(0, 0, 0, 1, -1))  # z^3 (1 - z)
        found = dict((round(r.real, 9), m) for r, m in rs)
        assert found == {0.0: 3, 1.0: 1}
        # the root 0 in a factor of the square-free split with other roots
        for p, expect in ((P(0, 0, 1, 0, 2, 0, 1), {0j: 2, 1j: 2, -1j: 2}),
                          (P(0, -2, 1), {0j: 1, 2 + 0j: 1})):
            found = {complex(round(r.real, 9), round(r.imag, 9)): m
                     for r, m in find_roots(p)}
            assert found == expect

    def test_high_multiplicity_cluster(self):
        p = P(-1, 1) ** 18 * P(1, 1) ** 17 * P(1, -3)
        rs = find_roots(p)
        mults = {round(r.real, 9): m for r, m in rs}
        assert mults == {1.0: 18, -1.0: 17, round(1 / 3, 9): 1}
        assert rs.total_multiplicity == 36

    def test_constant_poly(self):
        assert len(find_roots(P(5))) == 0

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            find_roots(P())

    def test_vieta_sums_and_products(self):
        rng = random.Random(17)
        for _ in range(60):
            deg = rng.randint(1, 8)
            coeffs = [rng.randint(-6, 6) for _ in range(deg)] + \
                     [rng.choice([-3, -2, -1, 1, 2, 3])]
            if coeffs[0] == 0:
                coeffs[0] = 1
            p = IntPoly(coeffs)
            rs = find_roots(p)
            assert rs.total_multiplicity == p.degree
            s = sum(r * m for r, m in rs)
            prod = 1 + 0j
            for r, m in rs:
                prod *= r ** m
            expect_s = -p[p.degree - 1] / p.leading_coefficient
            expect_p = ((-1) ** p.degree) * p[0] / p.leading_coefficient
            scale = max(1.0, abs(expect_s), abs(expect_p))
            assert abs(s - expect_s) < 1e-8 * scale
            assert abs(prod - expect_p) < 1e-8 * scale

    def test_deterministic(self):
        p = P(1, 3, -2, 0, 5, -1, 7)
        a = find_roots(p)
        b = find_roots(p)
        assert a == b

    def test_conjugate_pairs_on_unit_scale(self):
        rs = find_roots(P(1, -3, 5))
        (r1, _), (r2, _) = sorted(rs.roots, key=lambda rm: rm[0].imag)
        assert abs(r1 - r2.conjugate()) < 1e-12
        assert abs(abs(r1) - 1 / cmath.sqrt(5).real) < 1e-12


_EPS = 2.220446049250313e-16
TOL = 1e-12


def _eval_floor(coeffs: list[float], x: float) -> float:
    """Backward-error bound on Horner evaluation at |z| = x: once |p(z)|
    drops below this, the root is as converged as float64 permits."""
    acc = 0.0
    power = 1.0
    for c in coeffs:
        acc += abs(c) * power
        power *= x
    return 4.0 * _EPS * acc


def reference_aberth(poly):
    """The plain loop version of rootfind._aberth, from the same starting
    points: its own forward-sum floor at every iterate and an index test
    in the pairwise sum."""
    coeffs = _float_coeffs(poly)
    pairs = [(c, abs(c)) for c in reversed(coeffs)]
    deg = len(coeffs) - 1
    if deg == 1:
        return [-coeffs[0] / coeffs[1]]
    z = rootfind._starts(poly)
    done = [False] * deg
    worst = float("inf")
    for _ in range(_MAX_ITER):
        worst = 0.0
        for k in range(deg):
            if done[k]:
                continue
            zk = z[k]
            val, der = _horner2(pairs, zk)[:2]
            if abs(val) <= _eval_floor(coeffs, abs(zk)):
                done[k] = True
                continue
            if der == 0:
                z[k] = zk * (1.0 + 1e-6) + 1e-6
                worst = float("inf")
                continue
            w = val / der
            s = 0j
            for j in range(deg):
                if j != k:
                    diff = zk - z[j]
                    if diff == 0:
                        diff = TOL
                    s += 1.0 / diff
            denom = 1.0 - w * s
            step = w if denom == 0 else w / denom
            z[k] = zk - step
            rel = abs(step) / max(1.0, abs(z[k]))
            if rel > worst:
                worst = rel
        if worst <= TOL or all(done):
            return z
    raise NumericalError("reference Aberth iteration did not converge")


def banded_polys():
    """Reciprocal zeta and characteristic polynomials of cycles near 100
    nodes, characteristic polynomials near 200 nodes and loop-decorated
    D_n; several of these overflow float64 during the iteration."""
    polys = []
    for n in (98, 99, 100, 198, 199, 200):
        g = ade_graph("A", n)
        if n < 150:
            polys.append(zeta_inverse(g))
        polys.append(char_poly(matrices(g).adjacency))
    for n in (20, 30, 40):
        g = ade_graph("D", n, with_loops=True)
        polys += [zeta_inverse(g), char_poly(matrices(g).adjacency)]
    return polys


def random_polys():
    rng = random.Random(41)
    polys = []
    for _ in range(50):
        deg = rng.randint(1, 24)
        bits = rng.choice([3, 20, 200])
        coeffs = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(deg)]
        p = IntPoly(coeffs + [rng.choice([-1, 1, 7])])
        if rng.random() < 0.3:
            p = p * P(rng.randint(-3, 3), 1) ** rng.randint(2, 3)
        if p.degree >= 1:
            polys.append(p)
    return polys


def test_horner_floor_is_the_running_error_bound():
    """_horner2's floor is 4*eps*sum|c_k|*|z|^k to within the rounding of
    a Horner sum of non-negative terms, 2*(deg+1)*2^-53 relative, against
    the exact sum of the same floats.  It is inf where the sum itself
    overflows, as the forward sum was, and only there, and it is never
    NaN at a finite z, also where a zero coefficient meets a power beyond
    float range (the forward sum's 0 * inf)."""
    big = Fraction(sys.float_info.max)
    eps4 = Fraction(4 * _EPS)
    rng = random.Random(47)
    cases = [([1.0, 0.0, 0.0, 1.0], 1e200), ([1.0, 0.0, 0.0, 1.0], 0.0)]
    for _ in range(300):
        deg = rng.randint(1, 60)
        coeffs = [rng.choice([0.0, 1.0, -1.0, rng.uniform(-1, 1) * 10.0 **
                              rng.randint(-20, 280)]) for _ in range(deg)]
        coeffs.append(rng.choice([1.0, -2.0, 10.0 ** rng.randint(0, 280)]))
        total = sum(abs(c) for c in coeffs)
        # |z| from 0 through the range where the sum overflows, including
        # |z| with total * |z|^deg just above 1.8e308, and far past it
        edge = math.exp((709.8 - math.log(total)) / deg)
        cases += [(coeffs, x) for x in (
            0.0, 0.5, 1.0, rng.uniform(1, 3), edge, edge * 1.001,
            edge * 0.999, 10.0 ** rng.uniform(0, 320 / deg), edge * 1e6,
            1e300) if math.isfinite(x)]
    for coeffs, r in cases:
        pairs = [(c, abs(c)) for c in reversed(coeffs)]
        z = cmath.rect(r, rng.uniform(0, 2 * math.pi))
        floor = _horner2(pairs, z)[2]
        exact = Fraction(0)
        for _, m in pairs:
            exact = exact * Fraction(abs(z)) + Fraction(m)
        rel = Fraction(2 * len(coeffs), 2 ** 53)
        assert not math.isnan(floor), (coeffs, r)
        if math.isinf(floor):
            assert exact * (1 + rel) > big, (coeffs, r)
        else:
            assert exact * (1 - rel) <= big, (coeffs, r)
            assert abs(Fraction(floor) - eps4 * exact) <= (
                rel * eps4 * exact + Fraction(1, 2 ** 1074)), (coeffs, r)
    assert _horner2([(1.0, 1.0), (0.0, 0.0), (0.0, 0.0), (1.0, 1.0)],
                    1e200)[2] == math.inf
    assert math.isnan(_eval_floor([1.0, 0.0, 0.0, 1.0], 1e200))


def outcome(p):
    """repr of the roots, or the text of the NumericalError raised."""
    try:
        return repr(find_roots(p))
    except NumericalError as err:
        return f"NumericalError: {err}"


@pytest.mark.parametrize("family", [banded_polys, random_polys])
def test_aberth_matches_reference_bit_for_bit(family, monkeypatch):
    polys = family()
    fast = [outcome(p) for p in polys]
    monkeypatch.setattr(rootfind, "_aberth", reference_aberth)
    assert fast == [outcome(p) for p in polys]
    if family is banded_polys:  # both kinds of outcome are compared
        raised = sum(o.startswith("NumericalError") for o in fast)
        assert 0 < raised < len(fast)


def test_coincident_iterates_match_reference_bit_for_bit(monkeypatch):
    """Two starting points on top of each other: the pairwise sum meets a
    zero difference, which counts at TOL, as in the reference loop."""
    starts = rootfind._starts
    monkeypatch.setattr(rootfind, "_starts",
                        lambda poly: [0.5 + 0.5j] * 2 + starts(poly)[2:])
    polys = [(-6, 11, -6, 1), (1, 0, 0, 0, 0, 1), (-1,) + (0,) * 6 + (1,),
             (2, -3, 0, 7, 1, -5, 1)]
    for poly in polys:
        assert repr(rootfind._aberth(poly)) == repr(reference_aberth(poly))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 201, 400])
def test_starts_of_roots_of_unity_lie_on_the_unit_circle(n):
    z = _starts((-1,) + (0,) * (n - 1) + (1,))
    assert len(z) == n
    for t, zt in enumerate(z):
        assert abs(abs(zt) - 1.0) < 1e-15
        assert abs(zt - cmath.exp(1j * (2 * math.pi * t / n + _ANGLE_OFFSET))
                   ) < 1e-13


def test_starts_follow_the_newton_polygon():
    """(z - 10^6)^2 (z - 1)(10^6 z - 1)(z^2 + 5): one hull edge per scale,
    with as many points as roots of that scale, each radius within a
    small factor of the root moduli it stands for."""
    p = P(-10 ** 6, 1) ** 2 * P(-1, 1) * P(-1, 10 ** 6) * P(5, 0, 1)
    radii = sorted(abs(z) for z in _starts(p.coeffs))
    moduli = [1e-6, 1.0, math.sqrt(5), math.sqrt(5), 1e6, 1e6]
    assert len(radii) == p.degree
    assert all(1 / 3 <= r / m <= 3 for r, m in zip(radii, moduli))


def test_starts_never_overflow():
    """Coefficients far beyond float range still give finite radii."""
    p = P(-(10 ** 400), 0, 0, 1) * P(10 ** 300, 10 ** 350)
    assert max(map(abs, p.coeffs)) > 10 ** 700
    radii = sorted(abs(z) for z in _starts(p.coeffs))
    assert len(radii) == p.degree
    assert abs(math.log10(radii[0]) + 50) < 1e-9
    assert all(abs(math.log10(r) - 400 / 3) < 1e-9 for r in radii[1:])


@pytest.mark.parametrize("coeffs", [
    (10 ** 700, 0, 1),  # as g(z^2), g of degree 1 scaled to 1 + 0.0 u
    (-(10 ** 400), 1),  # likewise, on a linear polynomial itself
    (10 ** 1000, 1, 0, 1),  # a Newton-polygon radius of 10^500
    (10 ** 400, 1, 1),  # leading coefficient scaled to 0.0, degree 2
    (1, 1, 10 ** 400),  # constant coefficient scaled to 0.0
])
def test_roots_beyond_float_range_raise(coeffs):
    with pytest.raises(NumericalError, match="beyond float range"):
        find_roots(IntPoly(coeffs))


@pytest.mark.parametrize("k", range(2, 10))
def test_kth_roots_put_real_w_on_the_axes(k):
    """Starting points solve z^k = w to float accuracy; for real w those
    on the real and imaginary axes have the other component exactly 0."""
    for w in (1.0, -1.0, 2.5, -3.0, 1e-30, 16 + 1e-30j, -2 - 3j):
        real = not complex(w).imag
        zs = _kth_roots(complex(w), k)
        assert len(zs) == k
        for z in zs:
            assert abs(z ** k - w) <= 1e-14 * abs(w)
        if real:
            positive = w.real > 0
            assert sum(z.imag == 0.0 for z in zs) == (
                k % 2 or (2 if positive else 0))
            assert sum(z.real == 0.0 for z in zs) == (
                2 if k % 4 == (0 if positive else 2) else 0)


def decimal_root(p, z):
    """The root of p near z by Newton's method in 60-digit complex
    decimal arithmetic, started slightly off z so that it owes nothing
    to z's symmetries, and rounded to the nearest complex float; a
    component below 1e-45 of the modulus is the exact 0 it stands for."""
    with localcontext() as ctx:
        ctx.prec = 60
        off = Decimal(abs(z)) * Decimal("1e-13")
        x, y = Decimal(z.real) + off, Decimal(z.imag) + off
        for _ in range(200):
            vx = vy = dx = dy = Decimal(0)
            for c in reversed(p.coeffs):
                dx, dy = dx * x - dy * y + vx, dx * y + dy * x + vy
                vx, vy = vx * x - vy * y + c, vx * y + vy * x
            norm = dx * dx + dy * dy
            sx, sy = (vx * dx + vy * dy) / norm, (vy * dx - vx * dy) / norm
            x, y = x - sx, y - sy
            size = abs(x) + abs(y)
            if abs(sx) + abs(sy) <= Decimal("1e-55") * size:
                break
        tiny = Decimal("1e-45") * size
        return complex(0.0 if abs(x) < tiny else float(x),
                       0.0 if abs(y) < tiny else float(y))


def certified_real(p, x):
    """Whether p changes sign between the midpoints next to the float x,
    in exact rational arithmetic: then x is the float nearest to a real
    root of p."""
    below = (Fraction(x) + Fraction(math.nextafter(x, -math.inf))) / 2
    above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    lo, hi = (sum(c * t ** i for i, c in enumerate(p.coeffs))
              for t in (below, above))
    return lo * hi <= 0


def square_free_polys():
    """Products of random integer linear and quadratic factors, and
    random g(z^k): real, complex, purely imaginary and clustered roots."""
    rng = random.Random(67)
    polys = []
    while len(polys) < 80:
        if rng.random() < 0.5:
            p = P(1)
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    p = p * P(rng.randint(-30, 30), rng.randint(1, 9))
                else:
                    p = p * P(rng.randint(-20, 20), rng.randint(-9, 9), 1)
        else:
            k = rng.randint(2, 6)
            g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))]
            g = [rng.choice([-3, -1, 1, 2])] + g + [rng.choice([-2, 1, 5])]
            p = P(*(g[i // k] if i % k == 0 else 0
                    for i in range((len(g) - 1) * k + 1)))
        rs = find_roots(p) if p.degree else ()
        if p.degree and p.coeffs[0] and all(m == 1 for _, m in rs):
            polys.append(p)
    return polys


def test_roots_are_the_nearest_floats():
    """Every root equals the 60-digit decimal root rounded to the nearest
    float, component by component; real roots are certified by a sign
    change and non-real ones have a nonzero reference imaginary part, so
    a root is returned as real exactly when it is real, and no component
    is -0.0."""
    kinds = set()
    for p in square_free_polys():
        rs = find_roots(p)
        assert rs.total_multiplicity == p.degree
        for z, _ in rs:
            assert decimal_root(p, z) == z, (p, z)
            if z.imag == 0.0:
                assert certified_real(p, z.real), (p, z)
            kinds.add((z.real == 0.0, z.imag == 0.0))
            assert z.conjugate() in [r for r, _ in rs]
            assert all(c or math.copysign(1.0, c) > 0 for c in (z.real, z.imag))
    assert kinds == {(False, False), (False, True), (True, False)}


def newton_sums(p, count):
    """Exact power sums s_1..s_count of the roots of p, from Newton's
    identities over the rationals."""
    d = p.degree
    e = [Fraction((-1) ** i * p[d - i], p[d]) for i in range(d + 1)]
    s = []
    for j in range(1, count + 1):
        v = (-1) ** (j - 1) * j * e[j] if j <= d else Fraction(0)
        for i in range(1, j):
            if i <= d:
                v += (-1) ** (i - 1) * e[i] * s[j - i - 1]
        s.append(v)
    return s


def test_lacunary_roots_match_the_power_sums():
    """Roots of g(z^k), found through g, meet the exact power sums for
    every j up to 2k + 1, including those not divisible by k."""
    rng = random.Random(53)
    for _ in range(60):
        k = rng.randint(2, 7)
        g = IntPoly([rng.choice([-1, 1]) * rng.randint(1, 9)]
                    + [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
                    + [rng.choice([-2, -1, 1, 3])])
        p = IntPoly(c if i % k == 0 else 0
                    for i in range(g.degree * k + 1)
                    for c in [g[i // k]])
        rs = find_roots(p)
        assert rs.total_multiplicity == p.degree
        for j, want in enumerate(newton_sums(p, 2 * k + 1), 1):
            got = sum(m * z ** j for z, m in rs)
            scale = sum(m * abs(z) ** j for z, m in rs)
            assert abs(got - complex(want)) <= 1e-9 * (1 + scale)


def test_cycle_zeta_factors_are_the_roots_of_unity():
    """z^n - 1, the square-free factor of a cycle's (1 - z^n)^2, is solved
    as w - 1: its roots are the n-th roots of unity to 1e-13, with 1 (and
    -1 for even n) exactly real."""
    for n in range(3, 401):
        roots = rootfind._factor_roots((-1,) + (0,) * (n - 1) + (1,))
        assert len(roots) == n
        ts = sorted(round(cmath.phase(z) * n / (2 * math.pi)) % n
                    for z in roots)
        assert ts == list(range(n))
        for z in roots:
            t = round(cmath.phase(z) * n / (2 * math.pi))
            assert abs(z - cmath.exp(2j * math.pi * t / n)) < 1e-13
        assert (1 + 0j) in roots and ((-1 + 0j) in roots) == (n % 2 == 0)
    for n in (3, 4, 6, 8, 12, 99, 100, 200, 401):
        rs = find_roots(P(1, *([0] * (n - 1)), -1) ** 2)
        roots = {z for z, _ in rs}
        assert len(rs) == n and {m for _, m in rs} == {2}
        for z in roots:
            assert abs(abs(z) - 1) < 1e-15
            assert z.conjugate() in roots
            assert (-z in roots) == (n % 2 == 0)
            assert (complex(-z.imag, z.real) in roots) == (n % 4 == 0)
        assert 1 in roots and (-1 in roots) == (n % 2 == 0)
        assert (1j in roots) == (n % 4 == 0)


@pytest.mark.parametrize("bad", ["nan", "inf", "nan+infj"])
def test_non_finite_roots_raise(monkeypatch, bad):
    """Also on a lacunary factor, before any k-th root is taken."""
    monkeypatch.setattr(rootfind, "_aberth",
                        lambda poly: [complex(bad)] * (len(poly) - 1))
    for p in (P(-2, 3, 1), P(-2, 0, 1), P(-2, 0, 0, 1)):
        with pytest.raises(NumericalError, match="not finite"):
            find_roots(p)


def test_refinement_uses_the_symmetries(monkeypatch):
    """Only roots with an angle in [0, pi/turns] are refined; the others
    are their exact conjugates, negatives and quarter turns."""
    calls = []
    refine = rootfind._refine
    monkeypatch.setattr(rootfind, "_refine",
                        lambda g, k, z: calls.append(z) or refine(g, k, z))
    for coeffs, refined in (((-1,) + (0,) * 7 + (1,), 2),  # z^8 - 1
                            ((1,) + (0,) * 5 + (1,), 2),  # z^6 + 1
                            ((5, 0, 0, -3, 1), 3),  # z^4 - 3z^3 + 5
                            ((1, 1, 1), 1)):
        calls.clear()
        roots = rootfind._refined(coeffs, rootfind._factor_roots(coeffs))
        assert len(calls) == refined, coeffs
        assert sorted(roots, key=repr) == sorted(
            (p.conjugate() for p in roots), key=repr)


def test_failed_refinement_raises(monkeypatch):
    cubic = (-6, 11, -6, 1)  # roots 1, 2, 3
    assert rootfind._refined(cubic, [1.01, 2.02, 2.97]) == [1.0, 2.0, 3.0]
    with pytest.raises(NumericalError, match="refine to 2 distinct points"):
        rootfind._refined(cubic, [1.01, 0.99, 2.97])
    with pytest.raises(NumericalError, match="left the root"):
        rootfind._refine(cubic, 1, 1.42 + 0j)  # next to a critical point
    with pytest.raises(NumericalError, match="critical point"):
        rootfind._refine((1, -2, 1), 1, 1 + 0j)  # the double root of g
    with pytest.raises(NumericalError, match="cannot start at 0"):
        rootfind._refine(cubic, 1, 0j)
    monkeypatch.setattr(rootfind, "_MAX_PREC", rootfind._PREC)
    monkeypatch.setattr(rootfind, "_STEPS", 1)
    with pytest.raises(NumericalError, match="did not settle"):
        rootfind._refine((-2, 0, 1), 1, 1.41 + 0j)


def test_colliding_images_raise(monkeypatch):
    """Images that are not deg f distinct roots raise at once."""
    monkeypatch.setattr(rootfind, "_refine", lambda g, k, z: 1.0 + 0j)
    with pytest.raises(NumericalError, match="refine to 1 distinct points"):
        find_roots(P(-6, 11, -6, 1))


def test_float_range_failures_raise():
    """Roots of modulus 10^310 have no float starting circle, and a root
    of modulus 10^-200 takes the reversed power sums past float range."""
    with pytest.raises(NumericalError, match="root moduli beyond float"):
        find_roots(P(1, 10**310, 1))
    with pytest.raises(NumericalError, match="out of float range"):
        find_roots(P(1, 10**200) * P(1, 1, 1))


def test_zero_derivative_iterate_moves_off(monkeypatch):
    """An iterate at a critical point of p is nudged off it, and the
    iteration still converges."""
    monkeypatch.setattr(rootfind, "_starts", lambda coeffs: [0j, 2j])
    low, high = sorted(rootfind._aberth((-1, 0, 1)), key=lambda z: z.real)
    assert abs(low + 1) < 1e-12 and abs(high - 1) < 1e-12


def near_pair(e):
    """(z - 1)(2^e z - (2^e + 1)): two real roots 2^-e apart."""
    a = 1 << e
    return P(a + 1, -(2 * a + 1), a)


def test_refinement_doubles_its_precision(monkeypatch):
    """Roots 2^-50 apart settle only after _refine doubles its starting
    precision; 1 + 2^-50 is a float, so the result is exact."""
    assert [r for r, _ in find_roots(near_pair(50))] == [1.0, 1 + 2**-50]
    with pytest.raises(NumericalError, match="did not settle at 2048 bits"):
        find_roots(near_pair(60))
    monkeypatch.setattr(rootfind, "_MAX_PREC", rootfind._PREC)
    with pytest.raises(NumericalError, match="did not settle at 128 bits"):
        find_roots(near_pair(50))


@pytest.mark.parametrize("shift", [1e-3, 1e-5])
def test_roots_missing_the_power_sums_raise(monkeypatch, shift):
    """Finite roots off by more than the tolerance: the forward sums catch
    shifted roots, the reverse sums a small root off by 10 %."""
    aberth = rootfind._aberth
    monkeypatch.setattr(rootfind, "_aberth", lambda poly: [
        z + shift for z in aberth(poly)])
    with pytest.raises(NumericalError, match="power sum of z\\^1"):
        find_roots(P(-6, 11, -6, 1))  # roots 1, 2, 3
    monkeypatch.setattr(rootfind, "_aberth", lambda poly: [
        z * 1.1 if abs(z) < 1e-3 else z for z in aberth(poly)])
    with pytest.raises(NumericalError, match="power sum of z\\^-1"):
        find_roots(P(-1, 10 ** 6) * P(-1, 1))  # roots 1e-6 and 1


def test_aberth_gives_up_after_max_iter(monkeypatch):
    """One sweep does not settle the roots of a square-free cubic: the
    iteration raises with the degree and the last correction."""
    monkeypatch.setattr(rootfind, "_MAX_ITER", 1)
    with pytest.raises(NumericalError, match=r"did not reach tol=1e-12 "
                       r"within 1 sweeps \(degree 3, last correction"):
        find_roots(P(-6, 11, -6, 1))  # roots 1, 2, 3


def test_zero_roots_need_only_the_forward_sums():
    rs = find_roots(P(0, 0, -6, 11, -6, 1))
    assert dict((round(z.real, 9), m) for z, m in rs) == {
        0.0: 2, 1.0: 1, 2.0: 1, 3.0: 1}
