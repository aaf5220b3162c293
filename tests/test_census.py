import random
import sys
from bisect import bisect_right
from collections import Counter
from math import gcd

import pytest

from zetaforge import census as census_module
from zetaforge.catalog import (ade_graph, dimer_graph, load_catalog,
                               quiver_to_graph)
from zetaforge.census import (CensusError, build_darts, count_closed_paths,
                              enumerate_primes, pnt_ratios)
from zetaforge.cli import HORIZON_LIMIT
from zetaforge.graphs import MixedGraph, normalize
from zetaforge.intpoly import log_derivative_series, mobius_invert
from zetaforge.zeta import analyze, zeta_inverse

import lyndon
from lyndon import _successors, lyndon_closed_walks, lyndon_prime_counts

WORKED = MixedGraph(2, edges=((0, 1), (1, 1)), arrows=((1, 0),))

# the Lyndon search's horizon: its cost grows exponentially with it, where
# the traces run to the command line's HORIZON_LIMIT
LYNDON_HORIZON = 12


def reference_census(g, horizon):
    """(closed_counts, prime_counts) by the set-based search: a
    fresh DFS per length over walks whose least dart is the start, each
    closed primitive walk stored as its minimal rotation."""
    darts = build_darts(g)
    succ = [[e.id for e in darts if e.tail == d.head and e.id != d.inverse]
            for d in darts]

    def min_rotation(seq):
        return min(seq[k:] + seq[:k] for k in range(len(seq)))

    def is_primitive(seq):
        m = len(seq)
        return not any(m % d == 0 and seq == seq[d:] + seq[:d]
                       for d in range(1, m))

    prime_counts = []
    for m in range(1, horizon + 1):
        classes = set()
        for start in range(len(darts)):
            stack = [(start,)]
            while stack:
                seq = stack.pop()
                if len(seq) == m:
                    last = darts[seq[-1]]
                    if (last.head == darts[start].tail
                            and seq[0] != last.inverse
                            and is_primitive(seq)):
                        classes.add(min_rotation(seq))
                    continue
                stack.extend(seq + (nxt,) for nxt in succ[seq[-1]]
                             if nxt >= start)
        for cls in classes:
            assert len({cls[k:] + cls[:k] for k in range(m)}) == m
        prime_counts.append(len(classes))
    closed = [sum(d * prime_counts[d - 1] for d in range(1, m + 1)
                  if m % d == 0) for m in range(1, horizon + 1)]
    return closed, prime_counts


def lyndon_dfs(darts, succ, horizon):
    """Lyndon closed walks of each length 1..horizon by the plain pruned
    depth-first search: every node, the last level included, is visited
    and counts the closing darts above its FKM floor word[t - p]."""
    counts = [0] * horizon
    word = [0] * horizon

    def extend(t, p):
        last = word[t - 1]
        floor = word[t - p]
        ends = closing[last]
        counts[t] += len(ends) - bisect_right(ends, floor)
        if t + 1 < horizon:
            for e in succ[last]:
                if e >= floor:
                    word[t] = e
                    extend(t + 1, p if e == floor else t + 1)

    for d in darts:
        if d.head == d.tail:
            counts[0] += 1
        if horizon > 1:
            closing = [[e for e in s if darts[e].head == d.tail
                        and e != d.inverse] for s in succ]
            word[0] = d.id
            extend(1, 1)
    return counts


def visited_nodes(filename, search, darts, succ, horizon):
    """(t, p) of every call of the function `extend` defined in filename
    while search(darts, succ, horizon) runs: the nodes it visits."""
    nodes = []

    def spy(frame, event, arg):
        # called once per Python call; returning None traces no lines
        code = frame.f_code
        if code.co_name == "extend" and code.co_filename == filename:
            nodes.append((frame.f_locals["t"], frame.f_locals["p"]))

    outer = sys.gettrace()  # a coverage run or a debugger keeps its tracer
    sys.settrace(spy)
    try:
        search(darts, succ, horizon)
    finally:
        sys.settrace(outer)
    return nodes


def closed_paths_by_rows(g, horizon):
    """N_1..N_horizon as traces of T^m, stepping one dense row of T^m per
    start dart along the successor lists: the unpacked reference."""
    succ = _successors(build_darts(g))
    size = len(succ)
    counts = [0] * horizon
    for d in range(size):
        row = [0] * size
        row[d] = 1
        for m in range(horizon):
            nxt = [0] * size
            for e, v in enumerate(row):
                if v:
                    for f in succ[e]:
                        nxt[f] += v
            row = nxt
            counts[m] += row[d]
    return counts


def census_workload_graphs():
    """The benchmark's census graphs with their horizons: affine A1, A2
    (the triangle), D4, D5 and E6 with two loops per node, and the dimer
    3,4,5."""
    def looped(n, edges):
        loops = [(v, v) for v in range(n) for _ in range(2)]
        return MixedGraph(n, tuple(edges + loops))

    def affine_d(index):
        return looped(index + 1, [(0, 2), (1, 2)]
                      + [(k, k + 1) for k in range(2, index - 2)]
                      + [(index - 2, index - 1), (index - 2, index)])

    dimer = [(2 * i, 2 * i + 1) for i, r in enumerate((3, 4, 5))
             for _ in range(r)]
    return [(looped(2, [(0, 1), (0, 1)]), 8),
            (looped(3, [(0, 1), (1, 2), (2, 0)]), 8),
            (affine_d(4), 8), (affine_d(5), 8),
            (looped(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]), 8),
            (MixedGraph(6, tuple(dimer)), 9)]


def random_mixed_graph(rng):
    """A normalized mixed multigraph on at most 5 nodes with loops,
    parallel edges and arrows (arrow loops and reciprocal arrow pairs fold
    into edges).  Total degree stays at most 4 per node, which keeps the
    reference search small at length 7."""
    n = rng.randint(1, 5)
    degree = [0] * n
    edges, arrows = [], []
    for _ in range(rng.randint(1, 2 * n + 2)):
        i, j = rng.randrange(n), rng.randrange(n)
        degree[i] += 1
        degree[j] += 1
        if max(degree) > 4:
            degree[i] -= 1
            degree[j] -= 1
        elif rng.random() < 0.3:
            arrows.append((i, j))
        else:
            edges.append((i, j))
    return normalize(MixedGraph(n, tuple(edges), tuple(arrows)))


class TestDarts:
    def test_edge_gives_inverse_pair(self):
        darts = build_darts(MixedGraph(2, edges=((0, 1),)))
        assert len(darts) == 2
        assert darts[0].inverse == 1 and darts[1].inverse == 0
        assert (darts[0].tail, darts[0].head) == (0, 1)

    def test_loop_gives_inverse_pair_at_same_node(self):
        darts = build_darts(MixedGraph(1, edges=((0, 0),)))
        assert len(darts) == 2
        assert all(d.tail == d.head == 0 for d in darts)
        assert darts[0].inverse == 1

    def test_arrow_has_no_inverse(self):
        darts = build_darts(MixedGraph(2, arrows=((0, 1),)))
        assert len(darts) == 1
        assert darts[0].inverse is None

    def test_arrow_self_loop_gives_loop_darts(self):
        raw = MixedGraph(2, edges=((0, 1),), arrows=((1, 1),))
        looped = MixedGraph(2, edges=((0, 1), (1, 1)))
        assert build_darts(raw) == build_darts(looped)
        assert zeta_inverse(raw) == zeta_inverse(looped)
        assert enumerate_primes(raw, 6) == enumerate_primes(looped, 6)


class TestClosedWalks:
    def test_triangle(self):
        assert count_closed_paths(ade_graph("A", 2), 6) == [0, 0, 6, 0, 0, 6]

    def test_worked_graph(self):
        assert count_closed_paths(WORKED, 4) == [2, 4, 8, 12]

    def test_tree_has_none(self):
        assert count_closed_paths(MixedGraph(2, edges=((0, 1),)), 6) == [0] * 6

    def test_horizon_guard(self):
        with pytest.raises(ValueError):
            count_closed_paths(WORKED, 0)
        # the library takes any horizon; only the command line bounds -L
        assert count_closed_paths(WORKED, 60) == log_derivative_series(
            zeta_inverse(WORKED), 60)

    def test_bool_horizon_rejected(self):
        """True is not read as horizon 1."""
        with pytest.raises(TypeError, match="horizon True is not an int"):
            count_closed_paths(WORKED, True)


class TestPrimes:
    def test_triangle_classes(self):
        census = enumerate_primes(ade_graph("A", 2), 6)
        assert census.prime_counts == [0, 0, 2, 0, 0, 0]
        assert census.delta == 3

    def test_three_loops_length_one(self):
        clover = MixedGraph(1, edges=((0, 0),) * 3)
        census = enumerate_primes(clover, 1)
        assert census.prime_counts == [6]

    def test_tree_no_primes(self):
        census = enumerate_primes(MixedGraph(3, edges=((0, 1), (1, 2))), 5)
        assert census.prime_counts == [0] * 5
        assert census.delta == 0

    def test_bool_horizon_rejected(self):
        """No census with horizon=True comes back."""
        with pytest.raises(TypeError, match="horizon True is not an int"):
            enumerate_primes(WORKED, True)

    def test_float_horizon_rejected(self):
        """A float horizon fails at the check, not inside the packed
        trace (float has no bit_length)."""
        with pytest.raises(TypeError, match="horizon 3.0 is not an int"):
            enumerate_primes(WORKED, 3.0)

    def test_worked_graph_matches_mobius(self):
        census = enumerate_primes(WORKED, 4)
        assert census.prime_counts == mobius_invert(census.closed_counts)

    def test_series_at_the_horizon_limit(self):
        """The traces at L = HORIZON_LIMIT equal the series of 1/zeta on
        the census workload graphs and on seeded mixed graphs."""
        rng = random.Random(2030)
        graphs = ([g for g, _ in census_workload_graphs()]
                  + [random_mixed_graph(rng) for _ in range(50)])
        for g in graphs:
            census = enumerate_primes(g, HORIZON_LIMIT)
            series = log_derivative_series(zeta_inverse(g), HORIZON_LIMIT)
            assert census.closed_counts == series, g
            assert census.prime_counts == mobius_invert(series), g
        assert sum(1 for g in graphs if g.arrows) > 10

    def test_oracle_equivalence_samples(self):
        for g in (WORKED, ade_graph("A", 3), dimer_graph([3]),
                  normalize(MixedGraph(3, arrows=tuple([(0, 1)] * 3
                                       + [(1, 2)] * 3 + [(2, 0)] * 3)))):
            census = enumerate_primes(g, 6)
            series = log_derivative_series(zeta_inverse(g), 6)
            assert census.closed_counts == series
            assert census.prime_counts == mobius_invert(series)


class TestAgainstReference:
    def assert_matches(self, g, horizon):
        closed, primes = reference_census(g, horizon)
        for m in range(1, horizon + 1):
            census = enumerate_primes(g, m)
            delta = 0
            for length in range(1, m + 1):
                if primes[length - 1]:
                    delta = gcd(delta, length)
            assert (census.closed_counts, census.prime_counts,
                    census.delta) == (closed[:m], primes[:m], delta), (g, m)
        return primes

    def test_random_mixed_graphs(self):
        rng = random.Random(2000)
        graphs = [random_mixed_graph(rng) for _ in range(200)]
        assert sum(1 for g in graphs if g.arrows) > 50
        assert sum(1 for g in graphs
                   if any(i == j for i, j in g.edges)) > 50
        assert sum(1 for g in graphs
                   if len(set(g.edges)) < len(g.edges)) > 20
        with_primes = sum(1 for g in graphs if any(self.assert_matches(g, 7)))
        assert with_primes > 150

    def test_forests_and_empty_graph(self):
        for g in (MixedGraph(1), MixedGraph(4),
                  MixedGraph(2, edges=((0, 1),)),
                  MixedGraph(5, edges=((0, 1), (1, 2), (1, 3), (3, 4))),
                  MixedGraph(5, edges=((0, 1), (2, 3), (2, 4)))):
            self.assert_matches(g, 7)
            assert enumerate_primes(g, 7).prime_counts == [0] * 7

    def test_catalog_family_against_the_search(self):
        """The 41 catalog quivers and their dimer graphs at L = 8: the
        traces' inversion equals the Lyndon search."""
        with_primes = 0
        for rec in load_catalog():
            for g in (quiver_to_graph(rec.quiver),
                      dimer_graph(list(rec.valencies))):
                primes = enumerate_primes(g, 8).prime_counts
                assert primes == lyndon_prime_counts(g, 8), rec.id
                with_primes += any(primes)
        assert with_primes == 82

    def test_miscount_raises(self, monkeypatch):
        true_counts = count_closed_paths(WORKED, 4)

        def perturbed(g, horizon):
            counts = list(true_counts[:horizon])
            counts[-1] += 1
            return counts

        monkeypatch.setattr(census_module, "count_closed_paths", perturbed)
        with pytest.raises(CensusError, match="closed-walk count mismatch"):
            enumerate_primes(WORKED, 4)


class TestTableCount:
    """Once a node's remaining depth is at most its own (from depth
    horizon // 2 on), the Lyndon search of tests/lyndon.py counts the
    subtrees of its children above the floor from tables and visits only
    the child equal to the floor.  The plain search is the oracle: its
    count of a length does not depend on the horizon, so one run of it
    checks every smaller horizon.  Where it is too slow to reach
    LYNDON_HORIZON, the Moebius inversion of the closed-walk traces checks
    the longer lengths; the two agree wherever both run."""

    def assert_matches(self, g, searched=LYNDON_HORIZON):
        darts = build_darts(g)
        succ = _successors(darts)
        expect = lyndon_dfs(darts, succ, searched)
        traced = mobius_invert(count_closed_paths(g, LYNDON_HORIZON))
        assert traced[:searched] == expect, g
        expect += traced[searched:]
        for h in range(1, LYNDON_HORIZON + 1):
            assert lyndon_closed_walks(darts, succ, h) == expect[:h], (g, h)
        return expect

    def test_random_mixed_graphs(self):
        rng = random.Random(2010)
        graphs = [random_mixed_graph(rng) for _ in range(200)]
        with_primes = sum(1 for g in graphs if self.assert_matches(g)[-1])
        assert with_primes > 100

    def test_census_workload_graphs(self):
        for g, _ in census_workload_graphs():
            self.assert_matches(g, searched=10)

    def test_bouquets(self):
        # k loops at one node: 2k darts, each followed by 2k - 1 of them,
        # so a word may repeat its first dart and its floor-equal runs are
        # long; the plain search stops where it would take seconds
        for k, searched in zip(range(1, 7), (12, 12, 10, 8, 7, 7)):
            self.assert_matches(MixedGraph(1, edges=((0, 0),) * k), searched)

    def test_arrow_cycles(self):
        # k parallel arrows around a c-cycle: a closed walk winds around
        # the cycle a whole number of times, so its words repeat blocks of
        # c darts (long floor-equal runs), and many are powers of one
        # block (periodic, so not Lyndon)
        for c in (2, 3, 4, 5):
            for k in (1, 2, 3, 4):
                g = MixedGraph(c, arrows=tuple((i, (i + 1) % c)
                                               for i in range(c)
                                               for _ in range(k)))
                self.assert_matches(g, 12 if k < 4 else 10)

    def assert_series(self, g, horizon):
        census = enumerate_primes(g, horizon)
        series = log_derivative_series(zeta_inverse(g), horizon)
        assert census.closed_counts == series
        assert census.prime_counts == mobius_invert(series)

    def test_e6_with_loops_at_eleven(self):
        self.assert_series(ade_graph("E", 6, with_loops=True), 11)

    def test_d4_with_loops_at_twelve(self):
        self.assert_series(ade_graph("D", 4, with_loops=True), 12)

    def test_no_lyndon_word_is_extended_past_half_the_horizon(self):
        # down to depth horizon // 2 the search visits every node that the
        # plain search visits; deeper, only children equal to the floor,
        # which keep the period p < t, so no Lyndon word (p = t).  Both
        # parities of the horizon are covered by 2..11.
        deep = 0
        for g, _ in census_workload_graphs():
            darts = build_darts(g)
            succ = _successors(darts)
            plain = Counter(t for t, _ in visited_nodes(
                __file__, lyndon_dfs, darts, succ, LYNDON_HORIZON // 2 + 1))
            for h in range(2, LYNDON_HORIZON):
                low = h // 2
                nodes = visited_nodes(lyndon.__file__, lyndon_closed_walks,
                                      darts, succ, h)
                shallow = {t: n for t, n in plain.items() if t <= low}
                assert Counter(t for t, _ in nodes if t <= low) == shallow, (
                    g, h)
                assert all(p < t for t, p in nodes if t > low), (g, h)
                deep += sum(1 for t, _ in nodes if t > low)
        assert deep > 10000


class TestPackedTraces:
    """count_closed_paths steps packed columns of T^m; the row-at-a-time
    traces are the oracle, at every horizon up to the command line's
    HORIZON_LIMIT."""

    def assert_matches(self, g):
        expect = closed_paths_by_rows(g, HORIZON_LIMIT)
        for h in range(1, HORIZON_LIMIT + 1):
            assert count_closed_paths(g, h) == expect[:h], (g, h)
        return expect

    def test_random_mixed_graphs(self):
        rng = random.Random(2020)
        graphs = [random_mixed_graph(rng) for _ in range(200)]
        assert sum(1 for g in graphs if any(self.assert_matches(g))) > 150

    def test_bouquets(self):
        for k in range(1, 7):
            closed = self.assert_matches(MixedGraph(1, edges=((0, 0),) * k))
            # the 2k darts of k loops: T = J - P with P the inverse
            # involution has eigenvalues 2k - 1, 1 (k times) and -1
            # (k - 1 times).  Every walk ends at the one node, so at L =
            # HORIZON_LIMIT the node sum's slots reach the bound s**(L - 1)
            # that sizes them, s = 2k - 1
            assert closed == [(2 * k - 1) ** m + k + (-1) ** m * (k - 1)
                              for m in range(1, HORIZON_LIMIT + 1)]
        for k in range(2, 7):
            # k parallel edges into one node: its sum holds k columns, and
            # each dart takes out its inverse's
            self.assert_matches(MixedGraph(2, edges=((0, 1),) * k))

    def test_arrow_cycles(self):
        # k parallel arrows around a c-cycle: each walk of m darts reaches
        # a given last dart in k**(m - 1) ways, which fills a slot of
        # bits(k**(horizon - 1)) exactly when k is a power of two
        for c in (2, 3, 4, 5):
            for k in (1, 2, 3, 4):
                g = MixedGraph(c, arrows=tuple((i, (i + 1) % c)
                                               for i in range(c)
                                               for _ in range(k)))
                closed = self.assert_matches(g)
                assert closed == [c * k ** m if m % c == 0 else 0
                                  for m in range(1, HORIZON_LIMIT + 1)]
        # a node with arrows in and no dart out: its node sum is formed and
        # never read, and the arrows into it lie on no closed walk
        sink = MixedGraph(3, edges=((0, 1), (1, 1)),
                          arrows=((0, 2), (1, 2), (1, 2)))
        assert self.assert_matches(sink) == self.assert_matches(
            MixedGraph(2, edges=((0, 1), (1, 1))))


class TestRatios:
    def test_triangle_ratio(self):
        census = enumerate_primes(ade_graph("A", 2), 6)
        ratios = pnt_ratios(census, analyze(ade_graph("A", 2)).r_g)
        assert ratios[3] == pytest.approx(2.0)
        assert set(ratios) == {3, 6}

    def test_no_primes_rejected(self):
        census = enumerate_primes(MixedGraph(2, edges=((0, 1),)), 4)
        with pytest.raises(CensusError):
            pnt_ratios(census, 1.0)

    def test_expanderish_ratio_near_one(self):
        g = normalize(MixedGraph(3, arrows=tuple([(0, 1)] * 3 + [(1, 2)] * 3
                                                 + [(2, 0)] * 3)))
        census = enumerate_primes(g, 6)
        ratios = pnt_ratios(census, analyze(g).r_g)
        assert ratios[6] == pytest.approx(1.0, abs=0.1)
