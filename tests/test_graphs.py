import random
import re
from collections import Counter
from types import SimpleNamespace

import pytest

from zetaforge.graphs import (GraphFormatError, MixedGraph, bipartition,
                              degree_profile, is_connected, matrices,
                              normalize, total_degrees)


def random_graph(rng, max_nodes=12):
    n = rng.randint(1, max_nodes)
    edges = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(0, 2 * n))]
    arrows = [(rng.randrange(n), rng.randrange(n))
              for _ in range(rng.randint(0, 2 * n))]
    return MixedGraph(n, tuple(edges), tuple(arrows))


def dense_matrices(g):
    """The dense builder that matrices() replaced, kept as the oracle:
    (adjacency, arrows) as n x n tuples, loops counted twice."""
    n = g.node_count
    adj = [[0] * n for _ in range(n)]
    arr = [[0] * n for _ in range(n)]
    for i, j in g.edges:
        if i == j:
            adj[i][i] += 2
        else:
            adj[i][j] += 1
            adj[j][i] += 1
    for i, j in g.arrows:
        adj[i][j] += 1
        arr[i][j] += 1
    return tuple(tuple(r) for r in adj), tuple(tuple(r) for r in arr)


def densify(rows):
    """Sparse rows as an n x n tuple of tuples."""
    n = len(rows)
    return tuple(tuple(row.get(j, 0) for j in range(n)) for row in rows)


def degree_diag(b):
    """Undirected degree minus one per node, from the rows: the Q of the
    reciprocal zeta."""
    return tuple(sum(a.values()) - sum(p.values()) - 1
                 for a, p in zip(b.adjacency, b.arrows))


def raw_pairs(rng):
    """(n, edges, arrows) of a random raw graph on 1-6 nodes whose arrows
    repeat and include self-loops and reciprocal pairs."""
    n = rng.randint(1, 6)
    edges = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(0, 3))]
    arrows = []
    for _ in range(rng.randint(0, 8)):
        i, j = rng.randrange(n), rng.randrange(n)
        arrows += [(i, j)] * rng.randint(1, 4)
        if rng.random() < 0.5:
            arrows += [(j, i)] * rng.randint(1, 4)
    return n, edges, arrows


def per_pair_reference(n, edges, arrows):
    """The normal form, pair by pair: each arrow self-loop a loop, and
    each unordered pair {i, j} with a arrows i->j and b arrows j->i
    min(a, b) edges and both surpluses as arrows."""
    counts = Counter(arrows)
    loops = [(i, i) for i in range(n) for _ in range(counts[i, i])]
    pairs, rest = [], []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = counts[i, j], counts[j, i]
            pairs += [(i, j)] * min(a, b)
            rest += [(i, j)] * (a - min(a, b))
            rest += [(j, i)] * (b - min(a, b))
    return MixedGraph(n, edges + loops + pairs, rest)


class TestConstruction:
    def test_canonical_edges(self):
        g = MixedGraph(3, edges=((2, 1), (0, 2)))
        assert g.edges == ((0, 2), (1, 2))

    def test_rejects_bad_indices(self):
        with pytest.raises(GraphFormatError):
            MixedGraph(2, edges=((0, 2),))
        with pytest.raises(GraphFormatError):
            MixedGraph(0)

    def test_malformed_pair_is_named(self):
        for edges, arrows, message in (
                (((0, 1, 2),), (), "edge (0, 1, 2) is not a pair"),
                ((5,), (), "edge 5 is not a pair"),
                ((), ((0,),), "arrow (0,) is not a pair")):
            with pytest.raises(GraphFormatError, match=re.escape(message)):
                MixedGraph(3, edges, arrows)

    def test_round_trip_dict(self):
        g = MixedGraph(3, edges=((0, 1), (1, 1)), arrows=((2, 0),))
        assert MixedGraph.from_dict(g.to_dict()) == g

    def test_arrow_self_loop_is_stored_as_loop(self):
        g = MixedGraph(2, edges=((0, 1),), arrows=((1, 1),))
        assert g.arrows == ()
        assert g == MixedGraph(2, edges=((0, 1), (1, 1)))

    def test_constructor_keeps_reciprocal_arrows(self):
        g = MixedGraph(2, arrows=((1, 0), (0, 1)))
        assert (g.edges, g.arrows) == ((), ((0, 1), (1, 0)))

    def test_from_dict_folds_on_load(self):
        doc = {"nodes": 3, "edges": [[0, 0]],
               "arrows": [[0, 1], [1, 0], [1, 2], [2, 0]]}
        g = MixedGraph.from_dict(doc)
        assert g.edges == ((0, 0), (0, 1))
        assert g.arrows == ((1, 2), (2, 0))

    def test_from_dict_validation(self):
        with pytest.raises(GraphFormatError):
            MixedGraph.from_dict({"edges": []})
        with pytest.raises(GraphFormatError):
            MixedGraph.from_dict({"nodes": 2, "edges": [[0]]})
        with pytest.raises(GraphFormatError):
            MixedGraph.from_dict([1, 2])
        # JSON true/false are not node counts or indices
        for doc in ({"nodes": True, "edges": [[0, 0]]},
                    {"nodes": 2, "edges": [[0, True]]},
                    {"nodes": 2, "arrows": [[False, 1]]}):
            with pytest.raises(GraphFormatError):
                MixedGraph.from_dict(doc)
        for name, value in (("edges", {"0": 1}), ("edges", "01"),
                            ("arrows", 3), ("arrows", None)):
            with pytest.raises(GraphFormatError) as err:
                MixedGraph.from_dict({"nodes": 2, name: value})
            assert str(err.value) == f"'{name}' must be a list of [i, j] pairs"


class TestNormalize:
    def test_arrow_self_loop_becomes_loop(self):
        g = normalize(MixedGraph(2, arrows=((1, 1),)))
        assert g.edges == ((1, 1),)
        assert g.arrows == ()

    def test_reciprocal_pair_becomes_edge(self):
        g = normalize(MixedGraph(2, arrows=((0, 1), (1, 0))))
        assert g.edges == ((0, 1),)
        assert g.arrows == ()

    def test_greedy_pairing_leaves_surplus(self):
        g = normalize(MixedGraph(2, arrows=((0, 1), (0, 1), (1, 0))))
        assert g.edges == ((0, 1),)
        assert g.arrows == ((0, 1),)

    def test_edges_only_fixed_point(self):
        g = MixedGraph(3, edges=((0, 1), (1, 2), (0, 2)))
        assert normalize(g) == g

    def test_idempotent_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(100):
            g = normalize(random_graph(rng))
            assert normalize(g) == g

    def test_matches_per_pair_reference(self):
        """Each unordered pair {i, j} with a arrows i->j and b arrows j->i
        gives min(a, b) edges and keeps both surpluses as arrows; each
        arrow self-loop becomes a loop.  The arrows' order does not
        matter."""
        rng = random.Random(26)
        for _ in range(500):
            n, edges, arrows = raw_pairs(rng)
            want = per_pair_reference(n, edges, arrows)
            g = MixedGraph(n, edges, arrows)
            assert normalize(g) == want
            # MixedGraph sorts its arrows and keeps its arrow self-loops
            # as loops, so hand normalize the one-way arrows shuffled in a
            # plain namespace
            rng.shuffle(arrows)
            assert normalize(SimpleNamespace(
                node_count=n, edges=g.edges,
                arrows=tuple(a for a in arrows if a[0] != a[1]))) == want

    def test_no_graph_holds_an_arrow_self_loop(self):
        """On raw graphs with arrow self-loops and reciprocal pairs, the
        constructor, normalize and the graph-file reader all give graphs
        without an arrow (i, i); the constructor keeps reciprocal pairs,
        and the reader folds them as normalize does."""
        rng = random.Random(32)
        for _ in range(300):
            n, edges, arrows = raw_pairs(rng)
            g = MixedGraph(n, edges, arrows)
            folded = normalize(g)
            assert folded == per_pair_reference(n, edges, arrows)
            assert MixedGraph.from_dict(g.to_dict()) == folded
            assert MixedGraph.from_dict({"nodes": n, "edges": edges,
                                         "arrows": arrows}) == folded
            for h in (g, folded):
                assert all(i != j for i, j in h.arrows)
            loops = [(i, j) for i, j in arrows if i == j]
            assert g.edges == MixedGraph(n, edges + loops).edges
            assert g.arrows == tuple(sorted(
                (i, j) for i, j in arrows if i != j))


class TestMatrices:
    def test_worked_example(self):
        g = MixedGraph(2, edges=((0, 1), (1, 1)), arrows=((1, 0),))
        b = matrices(g)
        assert b.adjacency == ({1: 1}, {0: 2, 1: 2})
        assert b.arrows == ({}, {0: 1})
        assert degree_diag(b) == (0, 2)

    def test_single_bare_node(self):
        b = matrices(MixedGraph(1))
        assert b.adjacency == b.arrows == ({},)
        assert b.adjacency[0].get(0, 0) == 0
        assert degree_diag(b) == (-1,)

    def test_triangle(self):
        g = MixedGraph(3, edges=((0, 1), (1, 2), (0, 2)))
        b = matrices(g)
        assert densify(b.adjacency) == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
        assert densify(b.arrows) == ((0, 0, 0),) * 3
        assert degree_diag(b) == (1, 1, 1)

    def test_arrow_self_loop_reads_as_loop(self):
        looped = matrices(MixedGraph(2, edges=((0, 1), (1, 1))))
        assert matrices(MixedGraph(2, edges=((0, 1),),
                                   arrows=((1, 1),))) == looped
        assert looped.arrows == ({}, {})

    def test_edge_minus_arrow_matrix_symmetric(self):
        rng = random.Random(29)
        for _ in range(100):
            g = normalize(random_graph(rng))
            b = matrices(g)
            n = g.node_count
            sym = [[b.adjacency[i].get(j, 0) - b.arrows[i].get(j, 0)
                    for j in range(n)] for i in range(n)]
            assert all(sym[i][j] == sym[j][i]
                       for i in range(n) for j in range(n))

    def test_exponent_identity(self):
        rng = random.Random(31)
        for _ in range(100):
            g = normalize(random_graph(rng))
            b = matrices(g)
            n = g.node_count
            trace = sum(q - 1 for q in degree_diag(b))
            assert n - len(g.edges) == -trace // 2

    def test_fully_undirected_has_zero_arrows(self):
        g = MixedGraph(4, edges=((0, 1), (2, 3), (1, 2)))
        b = matrices(g)
        assert b.arrows == ({},) * 4

    def test_fully_directed_has_equal_matrices_and_minus_one_diag(self):
        g = MixedGraph(3, arrows=((0, 1), (1, 2), (2, 0)))
        b = matrices(g)
        assert b.adjacency == b.arrows == ({1: 1}, {2: 1}, {0: 1})
        assert degree_diag(b) == (-1, -1, -1)

    def test_sparse_rows_match_dense_oracle(self):
        """Loops, parallel edges and arrows: the sparse rows hold exactly
        the nonzero entries of the dense builder's rows."""
        rng = random.Random(37)
        for _ in range(200):
            g = normalize(random_graph(rng))
            b = matrices(g)
            adj, arr = dense_matrices(g)
            assert densify(b.adjacency) == adj
            assert densify(b.arrows) == arr
            assert all(all(row.values()) for row in b.adjacency + b.arrows)

    def test_plain_rows_determine_the_degrees(self):
        """On raw graphs (repeated, reciprocal and self-loop arrows) each
        row is a plain dict with no zero, adjacency - arrows is symmetric,
        and a node's adjacency row sum less its arrows row sum is its
        undirected degree counted from g.edges, loops twice."""
        rng = random.Random(43)
        for _ in range(300):
            g = MixedGraph(*raw_pairs(rng))
            b = matrices(g)
            n = g.node_count
            for row in b.adjacency + b.arrows:
                assert type(row) is dict and all(row.values())
            edge = [[b.adjacency[i].get(j, 0) - b.arrows[i].get(j, 0)
                     for j in range(n)] for i in range(n)]
            assert edge == [list(c) for c in zip(*edge)]
            for v in range(n):
                degree = sum((i == v) + (j == v) for i, j in g.edges)
                assert (sum(b.adjacency[v].values())
                        - sum(b.arrows[v].values())) == degree


class TestProfiles:
    def test_conifold_dimer_regular(self):
        g = MixedGraph(2, edges=((0, 1),) * 4)
        assert degree_profile(g) == (4, 4, True)

    def test_triple_arrow_cycle_regular(self):
        g = MixedGraph(3, arrows=tuple([(0, 1)] * 3 + [(1, 2)] * 3
                                       + [(2, 0)] * 3))
        assert degree_profile(g) == (6, 6, True)

    def test_loop_heavy_irregular(self):
        g = MixedGraph(2, edges=((0, 1), (1, 1), (1, 1)))
        assert degree_profile(g) == (1, 5, False)

    def test_total_degree_counts_loops_twice(self):
        g = MixedGraph(1, edges=((0, 0),))
        assert total_degrees(g) == [2]


class TestBipartition:
    def test_parallel_edges(self):
        g = MixedGraph(2, edges=((0, 1),) * 4)
        colors = bipartition(g)
        assert colors is not None and colors[0] != colors[1]

    def test_odd_cycle(self):
        assert bipartition(MixedGraph(3, edges=((0, 1), (1, 2), (0, 2)))) \
            is None

    def test_loop(self):
        assert bipartition(MixedGraph(1, edges=((0, 0),))) is None

    def test_arrows_count_as_adjacency(self):
        g = MixedGraph(3, arrows=((0, 1), (1, 2), (2, 0)))
        assert bipartition(g) is None
        g2 = MixedGraph(2, arrows=((0, 1),))
        assert bipartition(g2) is not None

    def test_disconnected_components_colored(self):
        g = MixedGraph(4, edges=((0, 1), (2, 3)))
        colors = bipartition(g)
        assert colors[0] != colors[1] and colors[2] != colors[3]


class TestConnectivity:
    def test_connected(self):
        assert is_connected(MixedGraph(3, edges=((0, 1), (1, 2))))

    def test_disconnected(self):
        assert not is_connected(MixedGraph(3, edges=((0, 1),)))
