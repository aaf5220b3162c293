"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them)."""

import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from zetaforge.catalog import (DIMER_FLAG_ERRATA, ade_graph, dimer_graph,
                               dimer_zeta_closed, load_catalog,
                               quiver_to_graph, verify_catalog)
from zetaforge.census import enumerate_primes
from zetaforge.cli import main
from zetaforge.graphs import (MixedGraph, bipartition, degree_profile,
                              normalize)
from zetaforge.intpoly import (IntPoly, log_derivative_series,
                               mobius_invert, primitive_part,
                               squarefree_factors)
from zetaforge.zeta import (STRONG, adjacency_spectrum, analyze,
                            directed_zeta_inverse, is_ramanujan,
                            xi_functional_check, zeta_inverse)

from lyndon import lyndon_prime_counts


def P(*coeffs):
    return IntPoly(coeffs)


def prod(*factors):
    out = IntPoly((1,))
    for f in factors:
        out = out * f
    return out


def report(number, description, passed):
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} - "
          f"{description}")
    assert passed, f"criterion {number}: {description}"


def catalog_graphs():
    """(label, graph) for every catalog member, tilings and quivers."""
    out = []
    for rec in load_catalog():
        out.append((f"tiling {rec.id}", dimer_graph(list(rec.valencies))))
        out.append((f"quiver {rec.id}",
                    normalize(quiver_to_graph(rec.quiver))))
    return out


def test_criterion_1_cycle_closed_form():
    start = time.time()
    ok = zeta_inverse(ade_graph("A", 0)) == P(1, -2, 1)
    for n in range(2, 101):
        expect = [0] * (2 * n + 3)
        expect[0], expect[n + 1], expect[2 * n + 2] = 1, -2, 1
        ok = ok and zeta_inverse(ade_graph("A", n)) == IntPoly(expect)
    # the degenerate two-node case: a single edge, whose zeta is 1
    ok = ok and zeta_inverse(MixedGraph(2, edges=((0, 1),))) == P(1)
    elapsed = time.time() - start
    report(1, f"cycle family closed form, n in {{0}} u {{2..100}} "
              f"({elapsed:.2f}s < 5s)", ok and elapsed < 5.0)


def test_criterion_2_loop_decorated_tables():
    zm1, zp1 = P(-1, 1), P(1, 1)
    a_rows = {
        0: prod(P(-1, 0, 1) ** 2, P(1, -6, 5)),
        2: prod(zm1 ** 7, zp1 ** 6, P(-1, 5), P(1, -3, 5) ** 2),
        3: prod(zm1 ** 9, zp1 ** 8, P(-1, 5), P(1, -4, 5) ** 2, P(1, -2, 5)),
        4: prod(zm1 ** 11, zp1 ** 10, P(-1, 5), P(1, -7, 21, -35, 25) ** 2),
        5: prod(zm1 ** 13, zp1 ** 12, P(-1, 5), P(1, -5, 5) ** 2,
                P(1, -3, 5) ** 2, P(1, -2, 5)),
    }
    d_rows = {
        4: -1 * prod(zm1 ** 10, zp1 ** 9, P(-1, 2) ** 6, P(-1, 7, -16, 28)),
        5: -1 * prod(zm1 ** 12, zp1 ** 11, P(-1, 2) ** 4,
                     P(-1, 8, -20, 24), P(1, -7, 20, -36, 24)),
        6: -1 * prod(zm1 ** 14, zp1 ** 13, P(-1, 2) ** 4,
                     P(1, -8, 24, -40, 24),
                     P(-1, 11, -48, 120, -176, 120)),
        7: -1 * prod(zm1 ** 16, zp1 ** 15, P(-1, 2) ** 4,
                     P(-1, 12, -56, 140, -200, 120),
                     P(1, -11, 52, -148, 260, -272, 120)),
        8: -1 * prod(zm1 ** 18, zp1 ** 17, P(-1, 2) ** 4,
                     P(1, -12, 60, -172, 300, -296, 120),
                     P(-1, 15, -96, 360, -880, 1396, -1360, 600)),
    }
    e_rows = {
        6: -1 * prod(zm1 ** 14, zp1 ** 13, P(1, -8, 24, -36, 20) ** 2,
                     P(-1, 11, -48, 120, -176, 120)),
        7: -1 * prod(zm1 ** 16, zp1 ** 15,
                     P(1, -12, 60, -168, 280, -260, 100),
                     P(-1, 19, -160, 804, -2704, 6356, -10464, 11620,
                       -7840, 2400)),
        8: -1 * prod(zm1 ** 18, zp1 ** 17,
                     P(-1, 35, -576, 5952, -43456, 238784, -1025344,
                       3521088, -9801936, 22261008, -41253888, 62013952,
                       -74636224, 70319040, -49984400, 25186000,
                       -8000000, 1200000)),
    }
    ok = True
    for n, expect in a_rows.items():
        ok = ok and zeta_inverse(ade_graph("A", n, with_loops=True)) == expect
    for m, expect in d_rows.items():
        ok = ok and zeta_inverse(ade_graph("D", m, with_loops=True)) == expect
    for m, expect in e_rows.items():
        ok = ok and zeta_inverse(ade_graph("E", m, with_loops=True)) == expect
    report(2, "loop-decorated A/D/E reference polynomials (A 0,2..5; "
              "D4..D8; E6..E8; degree-35 row included)", ok)


def test_criterion_3_chiral_examples():
    dp0 = MixedGraph(3, arrows=tuple([(0, 1)] * 3 + [(1, 2)] * 3
                                     + [(2, 0)] * 3))
    clover = MixedGraph(1, edges=((0, 0),) * 3)
    conifold = MixedGraph(2, edges=((0, 1), (0, 1)))
    hirz1 = MixedGraph(4, arrows=tuple([(0, 1)] * 2 + [(1, 2)] * 2
                                       + [(2, 3)] * 2 + [(3, 0)] * 2))
    hirz2 = MixedGraph(4, arrows=tuple([(0, 1)] * 2 + [(0, 3)] * 2
                                       + [(1, 2)] * 2 + [(2, 0)] * 4
                                       + [(3, 2)] * 2))
    phallus = MixedGraph(2, edges=((0, 1), (1, 1), (1, 1)))
    spp = MixedGraph(3, edges=((0, 0), (0, 1), (0, 2), (1, 2)))
    four = MixedGraph(4, edges=((2, 3),),
                      arrows=((0, 1), (1, 2), (2, 3), (3, 0)))
    values_ok = (
        zeta_inverse(dp0) == P(1, 0, 0, -27)
        and zeta_inverse(clover) == prod(P(1, 0, -1) ** 2, P(1, -6, 5))
        and zeta_inverse(conifold) == P(1, 0, -1) ** 2
        and zeta_inverse(hirz1) == P(1, 0, 0, 0, -16)
        and zeta_inverse(hirz2) == P(1, 0, 0, -32)
        and zeta_inverse(phallus) == prod(P(1, 0, -1), P(1, -4, 3))
        and zeta_inverse(spp) == -1 * prod(P(-1, 1) ** 2,
                                           P(-1, 0, 0, 2, 4, 4, 3))
        and zeta_inverse(four) == P(1, 0, -1, 0, -2, 0, 1)
    )
    verdicts_ok = all(
        analyze(g).classification == STRONG
        for g in (dp0, hirz1, hirz2, phallus, spp, four))
    report(3, "chiral example polynomials and strong-RH verdicts",
           values_ok and verdicts_ok)


def test_criterion_4_tiling_column():
    records = load_catalog()
    zeta_ok = True
    flag_matches = 0
    erratum_seen = []
    for rec in records:
        valencies = list(rec.valencies)
        engine = zeta_inverse(dimer_graph(valencies))
        closed = dimer_zeta_closed(valencies)
        zeta_ok = zeta_ok and engine == rec.dimer_zeta == closed
        computed = analyze(dimer_graph(valencies)).classification
        flag = {"Strong": "S", "Weak": "W", "Violated": "N"}[computed]
        if flag == rec.dimer_flag:
            flag_matches += 1
        else:
            erratum_seen.append((rec.id, tuple(valencies), rec.dimer_flag,
                                 flag))
    erratum_ok = (erratum_seen ==
                  [(31, (3, 3, 4, 4), "S", "N")]
                  and 31 in DIMER_FLAG_ERRATA)
    report(4, f"tiling zeta exact on 41/41, flags {flag_matches}/41 with "
              f"the single known erratum", len(records) == 41 and zeta_ok
           and flag_matches == 40 and erratum_ok)


def test_criterion_5_quiver_column():
    records = load_catalog()
    zeta_ok = all(
        zeta_inverse(normalize(quiver_to_graph(rec.quiver)))
        == rec.quiver_zeta for rec in records)
    strong_ok = True
    for rec in records:
        computed = analyze(normalize(quiver_to_graph(rec.quiver)))
        strong_ok = strong_ok and (
            (computed.classification == STRONG) == (rec.quiver_flag == "S"))
    result = verify_catalog(records)
    # every remaining W/N deviation must be a documented convention note
    notes_only = result.ok
    report(5, "quiver zeta exact on 41/41, Strong verdicts everywhere, "
              "W/N deviations only as documented convention notes",
           zeta_ok and strong_ok and notes_only)


def test_criterion_6_census_oracle():
    start = time.time()
    ok = True
    for label, g in catalog_graphs():
        if g.node_count > 8:
            continue
        census = enumerate_primes(g, 6)
        series = log_derivative_series(zeta_inverse(g), 6)
        ok = ok and census.closed_counts == series
        ok = ok and census.prime_counts == mobius_invert(series)
        ok = ok and census.prime_counts == lyndon_prime_counts(g, 6)
    worked = MixedGraph(2, edges=((0, 1), (1, 1)), arrows=((1, 0),))
    census = enumerate_primes(worked, 4)
    ok = ok and census.closed_counts == [2, 4, 8, 12]
    ok = ok and census.closed_counts == \
        log_derivative_series(zeta_inverse(worked), 4)
    elapsed = time.time() - start
    report(6, f"census and brute-force search equal series and Moebius "
              f"inversion on all catalog graphs, L<=6 ({elapsed:.1f}s < 30s)",
           ok and elapsed < 30.0)


def test_criterion_7_structural_identities():
    ok = True
    for label, g in catalog_graphs():
        report_g = analyze(g)
        if g.is_directed_only:
            ok = ok and directed_zeta_inverse(g) == report_g.zeta_inverse
        ok = ok and report_g.kotani_sunada_ok
        if g.is_undirected:
            # poles of undirected graphs live in [R, 1]; chiral quivers
            # genuinely escape the unit disc (e.g. records 12 and 39)
            ok = ok and all(report_g.r_g - 1e-8 <= m <= 1 + 1e-8
                            for m in report_g.poles.moduli())
        if g.is_undirected:
            moduli = report_g.poles.moduli()
            if moduli and report_g.q >= 1:
                ok = ok and 1 / report_g.q - 1e-8 <= report_g.r_g
            if moduli and report_g.p >= 1:
                ok = ok and report_g.r_g <= 1 / report_g.p + 1e-8
        profile = degree_profile(g)
        if g.is_undirected and profile.is_regular:
            ok = ok and is_ramanujan(g) == \
                (report_g.classification == STRONG)
            if bipartition(g) is not None:
                eigs = [round(lam.real, 8)
                        for lam, _ in adjacency_spectrum(g)]
                ok = ok and -profile.max_degree in eigs
    for rec in load_catalog():
        expected = {1.0}
        for r in rec.valencies:
            if r >= 2:
                expected.add(1.0 / (r - 1))
        mods = analyze(dimer_graph(list(rec.valencies))).poles.moduli()
        ok = ok and all(min(abs(m - e) for e in expected) < 1e-8
                        for m in mods)
    xi_ok = all(xi_functional_check(ade_graph("A", n))
                for n in range(2, 12)) and \
        xi_functional_check(ade_graph("A", 0))
    report(7, "directed shortcut, degree bounds, tiling pole locations, "
              "bipartite spectra, Ramanujan<->Strong, xi equation",
           ok and xi_ok)


def test_criterion_8_determinism_and_speed():
    start = time.time()
    buf1, buf2 = io.StringIO(), io.StringIO()
    with redirect_stdout(buf1):
        code1 = main(["catalog-verify"])
    with redirect_stdout(buf2):
        code2 = main(["catalog-verify"])
    elapsed = time.time() - start
    ok = (code1 == code2 == 0
          and buf1.getvalue() == buf2.getvalue()
          and len(buf1.getvalue()) > 0
          and elapsed < 60.0)
    report(8, f"catalog-verify deterministic, two runs in {elapsed:.1f}s "
              f"< 60s", ok)


def fraction_det(m):
    """Determinant of a square matrix by Fraction Gaussian elimination."""
    work = [[Fraction(x) for x in row] for row in m]
    n = len(work)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if work[i][k]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            det = -det
        det *= work[k][k]
        for i in range(k + 1, n):
            factor = work[i][k] / work[k][k]
            for j in range(k, n):
                work[i][j] -= factor * work[k][j]
    return det


def test_criterion_9_size_floor():
    # a random mixed multigraph with n = 40 nodes, 3n edges (loops and
    # parallel edges allowed) and n arrows, none reciprocal
    rng = random.Random(40)
    n = 40
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
    arrows = set()
    while len(arrows) < n:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j and (j, i) not in arrows:
            arrows.add((i, j))
    g = MixedGraph(n, edges=tuple(edges), arrows=tuple(sorted(arrows)))
    adj = [[0] * n for _ in range(n)]
    arr = [[0] * n for _ in range(n)]
    degree = [0] * n
    for i, j in edges:
        adj[i][j] += 1
        adj[j][i] += 1
        degree[i] += 1
        degree[j] += 1
    for i, j in arrows:
        adj[i][j] += 1
        arr[i][j] += 1
    start = time.time()
    zi = zeta_inverse(g)
    factors = squarefree_factors(zi)
    ok = True
    for z0 in (2, -3, 7):
        walk = [[(i == j) - adj[i][j] * z0
                 + (degree[i] - 1) * (i == j) * z0 ** 2 + arr[i][j] * z0 ** 3
                 for j in range(n)] for i in range(n)]
        expect = Fraction(1 - z0 * z0) ** (len(edges) - n) * fraction_det(walk)
        ok = ok and zi(z0) == expect
    recon = IntPoly((1,))
    for f, mult in factors:
        recon = recon * f ** mult
    ok = ok and primitive_part(recon) == primitive_part(zi)
    elapsed = time.time() - start
    report(9, f"n=40 mixed multigraph: zeta at z0 in {{2, -3, 7}} and its "
              f"square-free split ({elapsed:.1f}s < 8s)",
           ok and elapsed < 8.0)


def test_criterion_10_census_reach():
    g = ade_graph("E", 6, with_loops=True)
    start = time.time()
    census = enumerate_primes(g, 10)
    ok = census.closed_counts == log_derivative_series(zeta_inverse(g), 10)
    ok = ok and census.prime_counts == mobius_invert(census.closed_counts)
    ok = ok and census.prime_counts == lyndon_prime_counts(g, 10)
    elapsed = time.time() - start
    report(10, f"census of E6 with two loops per node to L=10 equals the "
               f"series, its Moebius inversion and the brute-force search "
               f"({elapsed:.1f}s < 10s)",
           ok and elapsed < 10.0)


def test_criterion_11_thousand_node_cycle():
    start = time.time()
    expect = [0] * 2001
    expect[0], expect[1000], expect[2000] = 1, -2, 1
    ok = zeta_inverse(ade_graph("A", 999)) == IntPoly(expect)
    elapsed = time.time() - start
    report(11, f"1000-node cycle closed form 1 - 2z^1000 + z^2000 "
               f"({elapsed:.1f}s < 5s)", ok and elapsed < 5.0)
