import cmath
import math
import random

import pytest

from zetaforge import rootfind
from zetaforge.catalog import ade_graph
from zetaforge.graphs import matrices
from zetaforge.intpoly import IntPoly
from zetaforge.polydet import char_poly
from zetaforge.rootfind import (_ANGLE_OFFSET, _MAX_ITER, NumericalError,
                                _converged, _eval_floor, _horner2,
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

    def test_zero_roots_stripped(self):
        rs = find_roots(P(0, 0, 0, 1, -1))  # z^3 (1 - z)
        found = dict((round(r.real, 9), m) for r, m in rs)
        assert found == {0.0: 3, 1.0: 1}

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


def reference_aberth(coeffs, tol):
    """The plain loop version of rootfind._aberth: the backward-error
    floor at every iterate and an index test in the pairwise sum."""
    deg = len(coeffs) - 1
    lead = coeffs[-1]
    radius = 1.0 + max(abs(c / lead) for c in coeffs[:-1])
    z = [radius * cmath.exp(2j * cmath.pi * (k / deg) + 1j * _ANGLE_OFFSET)
         for k in range(deg)]
    if deg == 1:
        return [-coeffs[0] / coeffs[1]]
    done = [False] * deg
    worst = float("inf")
    for _ in range(_MAX_ITER):
        worst = 0.0
        for k in range(deg):
            if done[k]:
                continue
            zk = z[k]
            val, der = _horner2(coeffs, zk)
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
                        diff = tol
                    s += 1.0 / diff
            denom = 1.0 - w * s
            step = w if denom == 0 else w / denom
            z[k] = zk - step
            rel = abs(step) / max(1.0, abs(z[k]))
            if rel > worst:
                worst = rel
        if worst <= tol or all(done):
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


def test_converged_decides_like_the_floor():
    """The cheap bound never changes the decision size <= floor, also
    where the floor overflows to inf or turns NaN (0 * inf)."""
    rng = random.Random(47)
    for _ in range(300):
        deg = rng.randint(1, 60)
        coeffs = [rng.choice([0.0, 1.0, -1.0, rng.uniform(-1, 1) * 10.0 **
                              rng.randint(-20, 280)]) for _ in range(deg)]
        coeffs.append(rng.choice([1.0, -2.0, 10.0 ** rng.randint(0, 280)]))
        scale = 2.0 * sum(abs(c) for c in coeffs)
        total = sum(abs(c) for c in coeffs)
        # |z| from 0 through the range where the floor and its bound
        # overflow, including |z| with total * |z|^deg just above 1.8e308
        edge = math.exp((709.8 - math.log(total)) / deg)
        xs = [0.0, 0.5, 1.0, rng.uniform(1, 3), edge, edge * 1.001,
              edge * 0.999, 10.0 ** rng.uniform(0, 320 / deg),
              math.inf, math.nan]
        for x in xs:
            floor = _eval_floor(coeffs, x)
            sizes = [0.0, 1e-300, math.inf, math.nan, rng.uniform(0, 1e300)]
            if math.isfinite(floor):
                sizes += [floor, math.nextafter(floor, math.inf),
                          math.nextafter(floor, 0.0)]
            for size in sizes:
                assert _converged(coeffs, scale, size, x) == (size <= floor)


@pytest.mark.parametrize("family", [banded_polys, random_polys])
def test_aberth_matches_reference_bit_for_bit(family, monkeypatch):
    polys = family()
    fast = [repr(find_roots(p)) for p in polys]
    monkeypatch.setattr(rootfind, "_aberth", reference_aberth)
    assert fast == [repr(find_roots(p)) for p in polys]
