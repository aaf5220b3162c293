import math
import os
import random
import subprocess
import sys
from collections import Counter
from collections.abc import Mapping

import pytest

from lyndon import _successors
from zetaforge import polydet
from zetaforge.catalog import ade_graph, dimer_graph
from zetaforge.census import build_darts
from zetaforge.graphs import (MixedGraph, degree_profile, matrices,
                              normalize)
from zetaforge import zeta
from zetaforge.cli import main
from zetaforge.intpoly import DivisibilityError, IntPoly, _roots_between
from zetaforge.polydet import char_poly
from zetaforge.zeta import (STRONG, TRIVIAL, VIOLATED, _xi_holds,
                            adjacency_spectrum, analyze,
                            directed_zeta_inverse, is_ramanujan,
                            xi_functional_check, zeta_inverse)


def P(*coeffs):
    return IntPoly(coeffs)


def cycle_zeta(n):
    expect = [0] * (2 * n + 3)
    expect[0], expect[n + 1], expect[2 * n + 2] = 1, -2, 1
    return IntPoly(expect)


DP0 = MixedGraph(3, arrows=tuple([(0, 1)] * 3 + [(1, 2)] * 3 + [(2, 0)] * 3))
SINGLE_EDGE = MixedGraph(2, edges=((0, 1),))


class TestZetaInverse:
    def test_cycles_match_closed_form(self):
        for n in range(2, 12):
            assert zeta_inverse(ade_graph("A", n)) == cycle_zeta(n)

    def test_triple_arrow_cycle(self):
        assert zeta_inverse(DP0) == P(1, 0, 0, -27)

    def test_three_loops(self):
        clover = MixedGraph(1, edges=((0, 0),) * 3)
        assert zeta_inverse(clover) == P(1, 0, -1) ** 2 * P(1, -6, 5)

    def test_tree_is_unit(self):
        assert zeta_inverse(SINGLE_EDGE) == P(1)
        path4 = MixedGraph(4, edges=((0, 1), (1, 2), (2, 3)))
        assert zeta_inverse(path4) == P(1)

    def test_constant_term_check_survives_python_o(self, monkeypatch,
                                                   tmp_path):
        """A determinant whose product with the prefactor does not start
        at 1 raises AssertionError from an explicit raise, which python
        -O keeps (an assert statement would be stripped there)."""
        monkeypatch.setattr(zeta, "det_poly", lambda rows: P(2, 1))
        with pytest.raises(AssertionError, match="constant term 2, not 1"):
            zeta_inverse(ade_graph("D", 4, with_loops=True))
        script = tmp_path / "bad_det.py"
        script.write_text(
            "from zetaforge import zeta\n"
            "from zetaforge.catalog import ade_graph\n"
            "from zetaforge.intpoly import IntPoly\n"
            "zeta.det_poly = lambda rows: IntPoly([2, 1])\n"
            "try:\n"
            "    zeta.zeta_inverse(ade_graph('D', 4, with_loops=True))\n"
            "except AssertionError as err:\n"
            "    print(err)\n")
        src = os.path.dirname(os.path.dirname(zeta.__file__))
        out = subprocess.run([sys.executable, "-O", str(script)],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout == "zeta^-1 has constant term 2, not 1\n"

    def test_constant_term_one_on_samples(self):
        for g in (DP0, ade_graph("A", 3), dimer_graph([3, 4]),
                  ade_graph("D", 5, with_loops=True)):
            assert zeta_inverse(g).constant_term == 1

    def test_relabelling_keeps_the_dense_family(self):
        rng = random.Random(53)
        for g in dense_family():
            expect = zeta_inverse(g)
            for _ in range(2):
                assert zeta_inverse(relabelled(g, rng)) == expect

    def test_dense_family_takes_the_wide_route(self, monkeypatch):
        calls = {"_frontier_det": 0, "_interpolated_det": 0}

        def counted(name):
            route = getattr(polydet, name)

            def spy(rows, n):
                calls[name] += 1
                return route(rows, n)
            return spy

        for name in calls:
            monkeypatch.setattr(polydet, name, counted(name))
        for g in dense_family():
            zeta_inverse(g)
        assert calls == {"_frontier_det": 0, "_interpolated_det": 7}

    def test_prefactor_equals_the_power_of_one_minus_z2(self):
        """(1 - z^2)^k from its binomial coefficients equals the power,
        for k in -8..120; a p that (1 - z^2)^|k| does not divide still
        raises DivisibilityError."""
        rng = random.Random(32)
        unit = P(1, 0, -1)
        for k in range(-8, 121):
            factor = unit ** abs(k)
            p = IntPoly([1] + [rng.randint(-9, 9) for _ in range(6)])
            if k >= 0:
                assert zeta._times_one_minus_z2(p, k) == p * factor
            else:
                assert zeta._times_one_minus_z2(p * factor, k) == p
                with pytest.raises(DivisibilityError):
                    zeta._times_one_minus_z2(p * factor + P(0, 1), k)
        assert zeta._times_one_minus_z2(p, 0) is p

    def test_disconnected_graph_multiplies(self):
        two_triangles = MixedGraph(6, edges=((0, 1), (1, 2), (0, 2),
                                             (3, 4), (4, 5), (3, 5)))
        assert zeta_inverse(two_triangles) == \
            zeta_inverse(ade_graph("A", 2)) ** 2


DART_MOD = (1 << 61) - 1


def random_mixed(n, rng, edge_count=None, arrow_count=None):
    """Random edges (loops and parallels allowed) and arrows with no
    self-loop and no reciprocal pair; by default 3n and n, the generator
    of the benchmark's dense family."""
    edge_count = 3 * n if edge_count is None else edge_count
    arrow_count = n if arrow_count is None else arrow_count
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(edge_count)]
    arrows, seen = [], set()
    while len(arrows) < arrow_count:
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j or (j, i) in seen:
            continue
        seen.add((i, j))
        arrows.append((i, j))
    return MixedGraph(n, edges=tuple(edges), arrows=tuple(arrows))


def dense_family():
    """The benchmark's dense family, in its draw order: five random mixed
    graphs at n = 16 and one each at n = 24 and 32."""
    family = random.Random("dense-family")
    return [random_mixed(n, family)
            for n, count in ((16, 5), (24, 1), (32, 1))
            for _ in range(count)]


def relabelled(g, rng):
    """g with its nodes renamed by a seeded random permutation."""
    perm = rng.sample(range(g.node_count), g.node_count)
    return MixedGraph(g.node_count,
                      edges=tuple((perm[i], perm[j]) for i, j in g.edges),
                      arrows=tuple((perm[i], perm[j]) for i, j in g.arrows))


def criterion_9_graph():
    """The n = 40 graph of acceptance criterion 9 (same draws)."""
    rng = random.Random(40)
    n = 40
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
    arrows = set()
    while len(arrows) < n:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j and (j, i) not in arrows:
            arrows.add((i, j))
    return MixedGraph(n, edges=tuple(edges), arrows=tuple(sorted(arrows)))


def dart_det(g, z0):
    """det(I - z0 T) mod 2^61 - 1, with T the non-backtracking dart
    matrix (T[a][b] = 1 when dart b may follow dart a), by sparse
    Gaussian elimination.  Column k takes as pivot the remaining row with
    the fewest entries; the rows so chosen form a permutation whose
    parity gives the sign."""
    succ = _successors(build_darts(g))
    rows = []
    for a, nxt in enumerate(succ):
        row = {a: 1}
        for b in nxt:
            row[b] = (row.get(b, 0) - z0) % DART_MOD
        rows.append({c: v for c, v in row.items() if v})
    remaining, order, det = set(range(len(rows))), [], 1
    for col in range(len(rows)):
        hits = [r for r in remaining if col in rows[r]]
        if not hits:
            return 0
        top = min(hits, key=lambda r: (len(rows[r]), r))
        remaining.discard(top)
        order.append(top)
        pivot = rows[top]
        det = det * pivot[col] % DART_MOD
        inv = pow(pivot[col], -1, DART_MOD)
        for r in hits:
            if r == top:
                continue
            row = rows[r]
            f = row[col] * inv % DART_MOD
            for c, v in pivot.items():
                x = (row.get(c, 0) - f * v) % DART_MOD
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    # column k's pivot is row order[k]: det = sign(order) * product, and
    # each cycle of even length is an odd permutation
    seen, odd = set(), False
    for start in range(len(order)):
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            k = order[k]
            length += 1
        odd ^= length > 0 and length % 2 == 0
    return -det % DART_MOD if odd else det


def zeta_mod(poly, z0):
    acc = 0
    for a in reversed(poly.coeffs):
        acc = (acc * z0 + a) % DART_MOD
    return acc


class TestDartOracle:
    """zeta_inverse against det(I - zT) on the dart matrix, an oracle that
    shares only the dart successor lists with the package: no walk
    matrices, no polynomial determinant, no prefactor."""

    def test_small_graphs(self):
        rng = random.Random(7)
        for g in (DP0, SINGLE_EDGE, MixedGraph(1, edges=((0, 0),) * 3),
                  ade_graph("D", 5, with_loops=True), dimer_graph([3, 4])):
            zi = zeta_inverse(g)
            for _ in range(3):
                z0 = rng.randrange(2, DART_MOD)
                assert zeta_mod(zi, z0) == dart_det(g, z0)

    def test_dense_family_and_criterion_9(self):
        rng = random.Random(61)
        for g in dense_family() + [criterion_9_graph()]:  # n = 16 to 40
            zi = zeta_inverse(g)
            for _ in range(2):
                z0 = rng.randrange(2, DART_MOD)
                assert zeta_mod(zi, z0) == dart_det(g, z0)

    def test_random_mixed_graphs_on_the_wide_route(self, monkeypatch):
        # 12-20 nodes with loops, parallel edges and arrows: most walk
        # matrices are too wide for the sweep, so the modulus sized by
        # Hadamard's bound is what the oracle checks
        wide = []
        interpolated = polydet._interpolated_det

        def spy(rows, n):
            wide.append(n)
            return interpolated(rows, n)

        monkeypatch.setattr(polydet, "_interpolated_det", spy)
        rng = random.Random(71)
        for _ in range(240):
            n = rng.randint(12, 20)
            g = random_mixed(n, rng, rng.randint(n, 3 * n), rng.randint(0, n))
            zi = zeta_inverse(g)
            for _ in range(2):
                z0 = rng.randrange(2, DART_MOD)
                assert zeta_mod(zi, z0) == dart_det(g, z0), g
        # a graph whose core is smaller may leave the wide route, so 240
        # graphs are drawn to keep more than 150 wide determinants
        assert len(wide) > 150

    def test_relabelled_graphs_on_the_wide_route(self):
        # the wide route sorts rows and columns by degree, which this
        # oracle never does: the dense family and random mixed graphs
        # under a seeded relabelling
        rng = random.Random(59)
        graphs = dense_family()
        for _ in range(40):
            n = rng.randint(12, 20)
            graphs.append(random_mixed(n, rng, rng.randint(2 * n, 3 * n),
                                       rng.randint(0, n)))
        for g in graphs:
            h = relabelled(g, rng)
            zi = zeta_inverse(h)
            for _ in range(2):
                z0 = rng.randrange(2, DART_MOD)
                assert zeta_mod(zi, z0) == dart_det(h, z0), h

    def test_dense_48(self):
        g = random_mixed(48, random.Random(48))
        zi = zeta_inverse(g)
        rng = random.Random(73)
        for _ in range(2):
            z0 = rng.randrange(2, DART_MOD)
            assert zeta_mod(zi, z0) == dart_det(g, z0)

    def test_banded_shapes(self):
        # the cycles, which fold to one loop, and the loop-decorated
        # diagrams, whose walk matrices take the frontier sweep; the
        # oracle never touches either
        graphs = [ade_graph("A", n - 1) for n in (99, 100, 201, 299, 401,
                                                  1000)]
        graphs += [ade_graph("D", n, with_loops=True)
                   for n in (20, 30, 40, 60)]
        graphs += [ade_graph("E", n, with_loops=True) for n in (6, 7, 8)]
        rng = random.Random(67)
        for g in graphs:
            zi = zeta_inverse(g)
            for _ in range(2):
                z0 = rng.randrange(2, DART_MOD)
                assert zeta_mod(zi, z0) == dart_det(g, z0), g.node_count


def edge_free_rich(rng):
    """A random normalized mixed graph in which many nodes carry no
    undirected edge: isolated nodes, arrow sinks and sources, and
    arrows-only parts beside a part with edges and loops."""
    n = rng.randint(2, 14)
    edged = rng.sample(range(n), rng.randint(0, n // 2))
    edges = []
    if edged:
        edges = [(rng.choice(edged), rng.choice(edged))
                 for _ in range(rng.randint(0, 3 * len(edged)))]
    arrows = []
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j and (j, i) not in arrows:
            arrows += [(i, j)] * rng.randint(1, 2)
    return MixedGraph(n, edges, arrows)


def undirected_degree(g, v):
    """Node v's undirected degree counted from g.edges, loops twice."""
    return sum((i == v) + (j == v) for i, j in g.edges)


def unfactored_zeta_inverse(g):
    """(1 - z^2)^(m - n) det(I - Az + Qz^2 + Pz^3), every row as it
    stands."""
    b = matrices(g)
    rows = []
    for i, (adj, arr) in enumerate(zip(b.adjacency, b.arrows)):
        row = {j: P(0, -a, 0, arr.get(j, 0)) for j, a in adj.items()}
        row[i] = P(1, -adj.get(i, 0), undirected_degree(g, i) - 1)
        rows.append(row)
    return zeta._times_one_minus_z2(polydet.det_poly(rows),
                                    g.edge_count - g.node_count)


class TestEdgeFreeRows:
    """A node with no undirected edge has its (1 - z^2) taken out of its
    row and into the prefactor; the polynomial must not change."""

    def test_random_graphs_rich_in_edge_free_nodes(self):
        rng = random.Random(83)
        kinds = Counter()
        for _ in range(300):
            g = edge_free_rich(rng)
            assert normalize(g) == g
            zi = zeta_inverse(g)
            assert zi == unfactored_zeta_inverse(g), g
            z0 = rng.randrange(2, DART_MOD)
            assert zeta_mod(zi, z0) == dart_det(g, z0), g
            b = matrices(g)
            free = [i for i in range(g.node_count)
                    if not undirected_degree(g, i)]
            power = g.edge_count - g.node_count + len(free)
            kinds["divides" if power < 0 else "multiplies"] += 1
            kinds["m >= n"] += g.edge_count >= g.node_count
            for i in free:
                out, into = bool(b.arrows[i]), any(i in r for r in b.arrows)
                kinds[{(False, False): "isolated", (True, False): "source",
                       (False, True): "sink", (True, True): "through"}[
                           out, into]] += 1
            kinds["arrows only"] += not g.edges and bool(g.arrows)
        assert min(kinds[k] for k in (
            "divides", "multiplies", "m >= n", "isolated", "source", "sink",
            "through", "arrows only")) >= 10, kinds

    def test_edgeless_graph_is_one(self):
        assert zeta_inverse(MixedGraph(1000)) == P(1)

    def test_directed_cycles(self):
        for n in (3, 10, 300, 1000):
            cycle = MixedGraph(n, arrows=[(i, (i + 1) % n) for i in range(n)])
            assert zeta_inverse(cycle) == P(1, *[0] * (n - 1), -1), n


def series_rich(rng):
    """A random mixed graph with pendant trees, subdivided edges and
    subdivided arrows, seeded and relabelled, and the set of those
    features it has.  The base has loops, parallel edges and arrows, and
    about half the graphs are normalized first."""
    n = rng.randint(1, 6)
    edges = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(0, 2 * n))]
    arrows = [(rng.randrange(n), rng.randrange(n))
              for _ in range(rng.randint(0, n))]
    if rng.random() < 0.5:
        g = normalize(MixedGraph(n, edges, arrows))
        edges, arrows = list(g.edges), list(g.arrows)
    features = set()
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(("edge", "arrow", "tree"))
        links = edges if kind == "edge" else arrows
        if kind == "tree":
            parent = [rng.randrange(n)]
            for k in range(rng.randint(1, 5)):
                edges.append((rng.choice(parent), n))
                parent.append(n)
                n += 1
        elif links:
            i, j = links.pop(rng.randrange(len(links)))
            chain = [i, *range(n, n + rng.randint(1, 3)), j]
            n = chain[-2] + 1
            links += zip(chain, chain[1:])
        else:
            continue
        features.add(kind)
    perm = rng.sample(range(n), n)
    g = MixedGraph(n, [(perm[i], perm[j]) for i, j in edges],
                   [(perm[i], perm[j]) for i, j in arrows])
    return g, features


def core_of(g):
    return zeta._series_core(g, matrices(g))


def assert_no_rule_applies(layers):
    """No node of a core is a leaf, a sink, a source, a pass-through
    node or bare."""
    into = Counter(j for layer in layers for _, arr in layer.values()
                   for j, c in arr.items() for _ in range(c))
    for k, layer in enumerate(layers):
        ends = sum(sum(adj.values()) - sum(arr.values())
                   for adj, arr in layer.values())
        loops = sum(adj.get(k, 0) - arr.get(k, 0)
                    for adj, arr in layer.values())
        out = sum(sum(arr.values()) for _, arr in layer.values())
        dart_loops = sum(arr.get(k, 0) for _, arr in layer.values())
        assert ends or out or into[k], k  # not bare
        if not ends:
            assert out and into[k], k  # neither a sink nor a source
        if not out and not into[k]:
            assert ends > 2 or loops, k  # neither a leaf nor two edges
        if not ends and out == into[k] == 1:
            assert dart_loops, k  # its one arrow in is its arrow out


class TestSeriesCore:
    """zeta_inverse runs on the series-reduced core: leaves stripped, and
    nodes with just two edges, or one arrow in and another out, folded
    into one edge or arrow of the summed length."""

    def test_random_graphs_with_trees_and_chains(self):
        """2400 seeded graphs against the unreduced rows and prefactor,
        which share no code with the core, and every 20th against the
        dart oracle too."""
        rng = random.Random(34)
        kinds = Counter()
        for t in range(2400):
            g, features = series_rich(rng)
            zi = zeta_inverse(g)
            assert zi == unfactored_zeta_inverse(g), g
            if t % 20 == 0:
                z0 = rng.randrange(2, DART_MOD)
                assert zeta_mod(zi, z0) == dart_det(g, z0), g
            layers = core_of(g)
            if layers is not None:
                assert len(layers) < g.node_count
                assert_no_rule_applies(layers)
                kinds["reduced"] += 1
                kinds.update(features)
                kinds["empty core"] += not layers
                kinds["long links"] += any(length > 1 for layer in layers
                                           for length in layer)
        assert kinds["reduced"] >= 2000, kinds
        assert min(kinds[k] for k in ("edge", "arrow", "tree", "empty core",
                                      "long links")) >= 100, kinds

    def test_cycle_is_one_loop(self):
        for n in (1, 2, 3, 99, 400):
            g = ade_graph("A", n - 1)
            expect = None if n == 1 else [{n: ({0: 2}, {})}]
            assert core_of(g) == expect
            assert zeta_inverse(g) == cycle_zeta(n - 1), n
        relabelled_cycle = relabelled(ade_graph("A", 99), random.Random(3))
        assert core_of(relabelled_cycle) == [{100: ({0: 2}, {})}]
        assert zeta_inverse(relabelled_cycle) == cycle_zeta(99)

    def test_node_on_two_parallel_edges(self):
        """Node 1's two edges to node 0 fold into a loop of length 2 at
        node 0, beside its own loop of length 1."""
        g = MixedGraph(2, edges=((0, 0), (0, 1), (0, 1)))
        assert core_of(g) == [{1: ({0: 2}, {}), 2: ({0: 2}, {})}]
        assert zeta_inverse(g) == unfactored_zeta_inverse(g)

    def test_directed_cycle_is_one_dart_loop(self):
        for n in (2, 7, 1000):
            g = MixedGraph(n, arrows=[(i, (i + 1) % n) for i in range(n)])
            assert core_of(g) == [{n: ({0: 1}, {0: 1})}]
            assert zeta_inverse(g) == P(1, *[0] * (n - 1), -1)

    def test_sinks_and_sources_go_with_their_arrows(self):
        """A triangle with 80 sinks, or 80 one-arrow sources, hung on it
        is one loop of length 3; so is one with a source sending an
        arrow to each triangle node, or a tree hung on it by an arrow:
        an undirected one, whose root is a sink once its leaves are
        stripped, or a directed one, whose nodes become sinks in turn."""
        triangle = ((0, 1), (1, 2), (2, 0))
        tree = ((3, 4), (3, 5), (4, 6), (4, 7))
        for g in (MixedGraph(83, edges=triangle,
                             arrows=[(0, k) for k in range(3, 83)]),
                  MixedGraph(83, edges=triangle,
                             arrows=[(k, k % 3) for k in range(3, 83)]),
                  MixedGraph(4, edges=triangle,
                             arrows=((3, 0), (3, 1), (3, 2))),
                  MixedGraph(8, edges=triangle + tree, arrows=((1, 3),)),
                  MixedGraph(8, edges=triangle, arrows=((1, 3),) + tree)):
            assert core_of(g) == [{3: ({0: 2}, {})}], g
            assert zeta_inverse(g) == P(1, 0, 0, -2, 0, 0, 1)

    def test_merge_makes_a_reciprocal_arrow_pair(self):
        """The directed 4-cycle 0->1->2->3->0 with a loop at 0 and at 2
        folds nodes 1 and 3 into the arrows 0->2 and 2->0 of length 2.
        They must stay two arrows: an edge would forbid the walk
        0->2->0, which backtracks on an edge but not on two arrows."""
        g = MixedGraph(4, edges=((0, 0), (2, 2)),
                       arrows=((0, 1), (1, 2), (2, 3), (3, 0)))
        assert core_of(g) == [{1: ({0: 2}, {}), 2: ({1: 1}, {1: 1})},
                              {1: ({1: 2}, {}), 2: ({0: 1}, {0: 1})}]
        zi = zeta_inverse(g)
        assert zi == unfactored_zeta_inverse(g)
        as_edge = MixedGraph(4, edges=((0, 0), (2, 2), (0, 1), (1, 2)))
        assert zi != zeta_inverse(as_edge)

    def test_lone_loop_node_is_not_reduced(self):
        for loops in (1, 2):
            g = MixedGraph(1, edges=((0, 0),) * loops)
            assert core_of(g) is None
        assert zeta_inverse(MixedGraph(1, edges=((0, 0),))) == P(1, -2, 1)

    def test_forest_and_edgeless_node_need_no_determinant(self, monkeypatch):
        def no_det(rows):
            raise AssertionError("determinant of an empty core")

        monkeypatch.setattr(zeta, "det_poly", no_det)
        for g in (MixedGraph(1), MixedGraph(5), SINGLE_EDGE,
                  ade_graph("E", 8), ade_graph("D", 6),
                  MixedGraph(7, edges=((0, 1), (1, 2), (3, 4), (4, 5),
                                       (4, 6)))):
            assert core_of(g) == []
            assert zeta_inverse(g) == P(1)

    def test_unit_lengths_give_the_plain_rows(self):
        """A graph that is its own core gets the rows (0, -a, 0, c) and
        (1, -a_ii, d - 1), an edge-free node (0, -a) and 1, and the power
        m - n plus its edge-free nodes."""
        g = MixedGraph(4, edges=((0, 0), (0, 1), (0, 1), (1, 1), (0, 2)),
                       arrows=((1, 0), (2, 1), (2, 1), (1, 2), (3, 0), (3, 1),
                               (2, 3)))
        b = matrices(g)
        assert core_of(g) is None
        rows, power = zeta._bass_rows(
            [{1: pair} for pair in zip(b.adjacency, b.arrows)])
        assert [{j: e.coeffs for j, e in row.items()} for row in rows] == [
            {0: (1, -2, 4), 1: (0, -2), 2: (0, -1)},
            {0: (0, -3, 0, 1), 1: (1, -2, 3), 2: (0, -1, 0, 1)},
            {0: (0, -1), 1: (0, -2, 0, 2), 2: (1,), 3: (0, -1, 0, 1)},
            {0: (0, -1), 1: (0, -1), 3: (1,)}]
        assert power == {1: 5 - 4 + 1}
        assert zeta_inverse(g) == unfactored_zeta_inverse(g)


class TestSparseWalkRows:
    def test_determinants_receive_mapping_rows(self, monkeypatch):
        """Every walk matrix reaches polydet as sparse rows, never as
        dense n x n rows that polydet would scan for the nonzeros."""
        seen = []
        sparse = polydet._sparse

        def spy(matrix, entry):
            seen.append(list(matrix))
            return sparse(matrix, entry)

        monkeypatch.setattr(polydet, "_sparse", spy)
        regular = ade_graph("A", 6, with_loops=True)
        directed = MixedGraph(3, arrows=((0, 1), (1, 2), (2, 0), (0, 2)))
        for call, g in ((zeta_inverse, DP0), (zeta_inverse, regular),
                        (directed_zeta_inverse, directed),
                        (adjacency_spectrum, DP0),
                        (adjacency_spectrum, regular),
                        (is_ramanujan, regular)):
            seen.clear()
            call(g)
            assert seen, call.__name__
            assert all(isinstance(row, Mapping)
                       for rows in seen for row in rows), call.__name__


class TestDirectedShortcut:
    def test_doubled_arrow_cycles(self):
        h1 = MixedGraph(4, arrows=tuple([(0, 1)] * 2 + [(1, 2)] * 2
                                        + [(2, 3)] * 2 + [(3, 0)] * 2))
        assert directed_zeta_inverse(h1) == P(1, 0, 0, 0, -16)
        assert zeta_inverse(h1) == P(1, 0, 0, 0, -16)

    def test_second_phase(self):
        h2 = MixedGraph(4, arrows=tuple([(0, 1)] * 2 + [(0, 3)] * 2
                                        + [(1, 2)] * 2 + [(2, 0)] * 4
                                        + [(3, 2)] * 2))
        assert directed_zeta_inverse(h2) == P(1, 0, 0, -32)

    def test_isolated_nodes(self):
        assert directed_zeta_inverse(MixedGraph(3)) == P(1)

    def test_rejects_edges(self):
        with pytest.raises(ValueError):
            directed_zeta_inverse(SINGLE_EDGE)

    def test_agrees_with_general_formula(self):
        for g in (DP0,
                  MixedGraph(2, arrows=((0, 1), (0, 1), (1, 0))),
                  MixedGraph(3, arrows=((0, 1), (1, 2), (2, 0), (0, 2)))):
            g = normalize(g)
            if g.edges:
                continue
            assert directed_zeta_inverse(g) == zeta_inverse(g)
        # seeded arrows-only multigraphs with parallel arrows, sinks,
        # sources and acyclic parts (one direction per node pair); a
        # singular adjacency (chi_A(0) = 0) leaves low zeros that the
        # reversal drops
        rng = random.Random(37)
        kinds = Counter()
        for _ in range(200):
            n = rng.randint(1, 10)
            acyclic = rng.random() < 0.2
            density = rng.choice((0.3, 0.6, 1.0))
            arrows = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < density:
                        forward = acyclic or rng.random() < 0.5
                        arrows += [(i, j) if forward else (j, i)] \
                            * rng.randint(1, 3)
            g = MixedGraph(n, arrows=arrows)
            assert normalize(g) == g
            zi = directed_zeta_inverse(g)
            assert zi == zeta_inverse(g)
            singular = char_poly(matrices(g).adjacency).constant_term == 0
            kinds[singular, zi.degree > 0] += 1
        # nilpotent (zeta^-1 = 1), singular with cycles, nonsingular
        assert kinds[True, False] and kinds[True, True] and kinds[False, True]


class TestAnalyze:
    def test_triple_arrow_cycle_strong(self):
        report = analyze(DP0)
        assert report.classification == STRONG
        assert abs(report.r_g - 1 / 3) < 1e-10
        assert report.ramanujan is None  # chiral graph

    def test_mixed_valency_dimer_violates(self):
        assert analyze(dimer_graph([3, 4])).classification == VIOLATED

    def test_double_edge_strong_with_unit_radius(self):
        report = analyze(MixedGraph(2, edges=((0, 1), (0, 1))))
        assert report.classification == STRONG
        assert abs(report.r_g - 1.0) < 1e-10

    def test_forest_is_trivial(self):
        report = analyze(SINGLE_EDGE)
        assert report.classification == TRIVIAL
        assert report.r_g == math.inf
        assert report.kotani_sunada_ok

    def test_pole_moduli_bounded_by_one_on_undirected(self):
        for g in (ade_graph("A", 5), dimer_graph([3, 4]),
                  ade_graph("E", 6, with_loops=True),
                  MixedGraph(2, edges=((0, 1), (1, 1), (1, 1)))):
            report = analyze(g)
            for mod in report.poles.moduli():
                assert report.r_g - 1e-8 <= mod <= 1 + 1e-8

    def test_chiral_poles_may_leave_unit_disc(self):
        # the [R, 1] pole bound is an undirected-graph fact: this chiral
        # quiver (two cycles of coprime lengths sharing structure) has a
        # real pole beyond 1
        from zetaforge.rootfind import find_roots
        chiral = normalize(MixedGraph(
            5, arrows=((0, 1), (0, 4), (1, 2), (1, 2), (2, 3), (2, 0),
                       (3, 0), (3, 4), (4, 1), (4, 2))))
        report = analyze(chiral)
        assert max(report.poles.moduli()) > 1 + 1e-8
        assert find_roots(report.zeta_inverse).total_multiplicity == \
            report.zeta_inverse.degree

    def test_regular_graphs_never_weak(self):
        for g in (ade_graph("A", 4), dimer_graph([3, 3]),
                  ade_graph("A", 7, with_loops=True)):
            profile_ok = analyze(g).classification
            assert profile_ok != "Weak"

    def test_kotani_sunada_on_undirected(self):
        report = analyze(dimer_graph([3, 3, 3, 5]))
        assert report.kotani_sunada_ok
        assert 1 / report.q - 1e-8 <= report.r_g <= 1 / report.p + 1e-8

    def test_json_round_trip_fields(self):
        doc = analyze(DP0).to_json_dict()
        assert doc["classification"] == "Strong"
        assert doc["zeta_inverse"] == ["1", "0", "0", "-27"]
        assert doc["ramanujan"] is None
        assert doc["connected"] is True


def jacobi_eigenvalues(matrix):
    """Eigenvalues of a real symmetric matrix, given as sparse rows, by
    cyclic Jacobi rotations, in ascending order."""
    n = len(matrix)
    a = [[float(row.get(j, 0)) for j in range(n)] for row in matrix]
    for _ in range(100):
        off = sum(a[p][q] ** 2 for p in range(n) for q in range(p + 1, n))
        if off <= 1e-30 * (1.0 + sum(a[p][p] ** 2 for p in range(n))):
            break
        for p in range(n):
            for q in range(p + 1, n):
                if not a[p][q]:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                t = math.copysign(1.0, theta) / (abs(theta)
                                                 + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                for row in a:
                    row[p], row[q] = c * row[p] - s * row[q], \
                        s * row[p] + c * row[q]
                a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                              [s * x + c * y for x, y in zip(a[p], a[q])])
    return sorted(a[i][i] for i in range(n))


def reference_ramanujan(g):
    """The definition on Jacobi eigenvalues, with a 1e-9 slack: every
    eigenvalue other than +-k lies within 2 sqrt(k - 1)."""
    k = max(sum(2 if i == j else 1 for i, j in g.edges if v in (i, j))
            for v in range(g.node_count))
    bound = 2.0 * math.sqrt(max(k - 1, 0)) + 1e-9
    return all(abs(abs(lam) - k) <= 1e-9 or abs(lam) <= bound
               for lam in jacobi_eigenvalues(matrices(g).adjacency))


def random_regular_multigraph(rng):
    """A k-regular multigraph from a random pairing of k stubs per node:
    loops and parallel edges arise as they fall."""
    while True:
        n, k = rng.randint(1, 20), rng.randint(0, 7)
        if n * k % 2 == 0:
            break
    stubs = [v for v in range(n) for _ in range(k)]
    rng.shuffle(stubs)
    return MixedGraph(n, edges=tuple(zip(stubs[::2], stubs[1::2])))


def squares_poly(chi):
    """H(y) = E(y)^2 - y O(y)^2 for chi(x) = E(x^2) + x O(x^2): the roots
    of H are the squares of the roots of chi."""
    even, odd = IntPoly(chi[0::2]), IntPoly(chi[1::2])
    return (even * even - P(0, 1) * odd * odd).coeffs


def disjoint_copies(g, copies):
    n = g.node_count
    return MixedGraph(n * copies, edges=tuple(
        (i + c * n, j + c * n) for c in range(copies) for i, j in g.edges))


# the trivial eigenvalues with multiplicity two: two K_3,3 (+-3 twice) and
# two K_4 (3 twice)
BOUNDARY_GRAPHS = (
    disjoint_copies(MixedGraph(6, edges=tuple(
        (i, j) for i in range(3) for j in range(3, 6))), 2),
    disjoint_copies(MixedGraph(4, edges=tuple(
        (i, j) for i in range(4) for j in range(i + 1, 4))), 2),
)


class TestRamanujan:
    def test_plain_cycles(self):
        for n in (2, 5, 9):
            assert is_ramanujan(ade_graph("A", n))

    def test_single_loop_node(self):
        assert is_ramanujan(ade_graph("A", 0))

    def test_loop_decorated_cycle_fails_for_large_n(self):
        assert not is_ramanujan(ade_graph("A", 10, with_loops=True))

    def test_rejects_irregular(self):
        with pytest.raises(ValueError):
            is_ramanujan(MixedGraph(2, edges=((0, 1), (1, 1))))

    def test_rejects_chiral(self):
        with pytest.raises(ValueError):
            is_ramanujan(DP0)

    def test_matches_strong_classification_on_regular(self):
        graphs = ([ade_graph("A", n) for n in range(31)]
                  + [ade_graph("A", n, with_loops=True) for n in range(13)]
                  + [dimer_graph([r]) for r in range(2, 7)]
                  + [dimer_graph([r] * 3) for r in range(2, 6)]
                  + list(BOUNDARY_GRAPHS))
        assert len(graphs) == 55
        for g in graphs:
            assert is_ramanujan(g) == (analyze(g).classification == STRONG)

    def test_trivial_eigenvalues_of_multiplicity_two(self):
        """lambda^2 = k^2 at the upper end of the open interval, twice."""
        for g, spectrum in zip(BOUNDARY_GRAPHS, ([-3, -3] + [0] * 8 + [3, 3],
                                                 [-1] * 6 + [3, 3])):
            assert jacobi_eigenvalues(matrices(g).adjacency) == \
                pytest.approx(spectrum, abs=1e-9)
            assert is_ramanujan(g) is reference_ramanujan(g) is True

    def test_two_regular_graphs_build_no_characteristic_polynomial(
            self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(zeta, "char_poly",
                            lambda rows: calls.append(rows) or char_poly(rows))
        for argv, count in ((("--ade", "A99"), 0),
                            (("--ade", "A10", "--loops"), 1)):
            calls.clear()
            assert main(["rh", *argv]) == 0
            assert len(calls) == count, argv
        capsys.readouterr()

    def test_edgeless_graph(self):
        assert is_ramanujan(MixedGraph(2))
        assert is_ramanujan(MixedGraph(1))

    def test_exact_equality_is_ramanujan(self):
        """One loop per node and 8 parallel edges: 10-regular with the
        eigenvalues 10 and -6, and 6^2 = 4 * (10 - 1) exactly."""
        g = MixedGraph(2, edges=((0, 0), (1, 1)) + ((0, 1),) * 8)
        assert jacobi_eigenvalues(matrices(g).adjacency) == \
            pytest.approx([-6, 10])
        assert is_ramanujan(g)
        # one parallel edge more: -7 against 2 sqrt(10); one fewer: -5
        # against 2 sqrt(8)
        for count, verdict in ((9, False), (7, True)):
            g = MixedGraph(2, edges=((0, 0), (1, 1)) + ((0, 1),) * count)
            assert is_ramanujan(g) is verdict is reference_ramanujan(g)

    def test_matches_jacobi_on_random_regular_multigraphs(self):
        rng = random.Random(59)
        verdicts = []
        for _ in range(320):
            g = random_regular_multigraph(rng)
            want = reference_ramanujan(g)
            assert is_ramanujan(g) == want, g
            verdicts.append(want)
        assert 15 < sum(verdicts) < len(verdicts) - 15  # both verdicts occur

    def test_every_cycle_up_to_400(self):
        """Every cycle is Ramanujan.  The exact count runs on the closed
        form chi_n = L_n - 2 (L_n(x) = x L_(n-1) - L_(n-2), L_0 = 2,
        L_1 = x) for every n; is_ramanujan runs on the graphs up to 100
        nodes and near 200 and 400, where char_poly must equal it."""
        lucas = [(2,), (0, 1)]
        for n in range(2, 401):
            lucas.append(tuple(
                (lucas[-1][i - 1] if i else 0)
                - (lucas[-2][i] if i < len(lucas[-2]) else 0)
                for i in range(n + 1)))
        for n in range(3, 401):
            chi = (lucas[n][0] - 2,) + lucas[n][1:]
            # the eigenvalues 2 cos(2 pi j / n): lambda^2 in (0, 4) for all
            # but lambda = 2, lambda = -2 (n even) and lambda = 0 twice
            # (4 | n)
            inside = n - 1 - (n % 2 == 0) - 2 * (n % 4 == 0)
            assert _roots_between(squares_poly(chi), 0, 4) == inside
            if n <= 100 or n in (199, 200, 201, 398, 399, 400):
                g = ade_graph("A", n - 1)
                assert char_poly(matrices(g).adjacency).coeffs == chi
                assert is_ramanujan(g)


def product_xi_holds(denom, q, n, m):
    """The xi functional equation as the product identity
    N (qz)^deg(N) rev_q(D) = rev_q(N) (qz)^deg(D) D, with
    N = (1+z)^(m-n) (1-z)^m (1-qz)^n and rev_q(f) = (qz)^deg(f) f(1/(qz)):
    the reference for the reduced identity of _xi_holds."""
    def rev(p):
        d = p.degree
        return IntPoly(p.coeffs[d - j] * q ** j for j in range(d + 1))

    numer = P(1, 1) ** (m - n) * P(1, -1) ** m * P(1, -q) ** n
    lhs = numer * rev(denom) * IntPoly.term(q, 1) ** numer.degree
    rhs = rev(numer) * denom * IntPoly.term(q, 1) ** denom.degree
    return lhs == rhs


class TestXiFunctionalEquation:
    def test_reduced_identity_matches_the_product_identity(self):
        """Seeded regular multigraphs with q = 1..4, their zeta
        polynomial D as it is (true) and perturbed by + z^j, * (1 + z) and
        * (1 - z^2); each q sees both verdicts."""
        rng = random.Random(61)
        verdicts = {q: set() for q in range(1, 5)}
        cases = 0
        while cases < 1200:
            g = random_regular_multigraph(rng)
            q = degree_profile(g).max_degree - 1
            if q not in verdicts:
                continue
            d = zeta_inverse(g)
            n, m = g.node_count, g.edge_count
            assert _xi_holds(d, q, n, m) is True
            j = rng.randint(1, d.degree + 2)
            for denom in (d, d + IntPoly.term(rng.choice((-1, 1)), j),
                          d * P(1, 1), d * P(1, 0, -1)):
                want = product_xi_holds(denom, q, n, m)
                assert _xi_holds(denom, q, n, m) == want, (g, denom)
                verdicts[q].add(want)
                cases += 1
        assert all(v == {True, False} for v in verdicts.values())

    def test_palindromes_at_q_one(self):
        """For q = 1, where m = n, the identity is z^(2m-d) rev(D) = D."""
        assert _xi_holds(P(1, -2, 1), 1, 1, 1)
        assert not _xi_holds(P(1, 0, -1), 1, 1, 1)
        assert not _xi_holds(P(1, 2, 1), 1, 2, 2)  # degree below 2m
        assert _xi_holds(P(1, 2, 1), 1, 1, 1)

    def test_cycles(self):
        for n in (2, 3, 6):
            assert xi_functional_check(ade_graph("A", n))

    def test_single_loop_node(self):
        assert xi_functional_check(ade_graph("A", 0))

    def test_degenerate_tree_rejected(self):
        with pytest.raises(ValueError):
            xi_functional_check(SINGLE_EDGE)

    def test_rejects_irregular(self):
        with pytest.raises(ValueError):
            xi_functional_check(dimer_graph([3, 4]))

    def test_loop_decorated_cycles(self):
        assert xi_functional_check(ade_graph("A", 4, with_loops=True))


class TestSpectrum:
    def test_triangle(self):
        spec = sorted((round(lam.real, 9), m)
                      for lam, m in adjacency_spectrum(ade_graph("A", 2)))
        assert spec == [(-1.0, 2), (2.0, 1)]

    def test_parallel_edge_dimer(self):
        spec = sorted((round(lam.real, 9), m)
                      for lam, m in adjacency_spectrum(dimer_graph([4])))
        assert spec == [(-4.0, 1), (4.0, 1)]

    def test_isolated_nodes(self):
        spec = list(adjacency_spectrum(MixedGraph(3)))
        assert spec == [(0j, 3)]

    def test_chiral_spectrum_complex(self):
        spec = adjacency_spectrum(DP0)
        assert any(abs(lam.imag) > 0.1 for lam, _ in spec)
