import random

import pytest

from zetaforge.intpoly import IntPoly
from zetaforge import polydet
from zetaforge.polydet import (_frontier_det, _interpolated_det, char_poly,
                              det_poly)


def P(*coeffs):
    return IntPoly(coeffs)


def sparse(m):
    """The private routes' input: one {column: coefficient tuple} dict per
    row of an IntPoly matrix, nonzero entries only."""
    return [{j: e.coeffs for j, e in enumerate(row) if e} for row in m]


def det_cofactor(m):
    if len(m) == 1:
        return m[0][0]
    total = IntPoly(())
    for j, head in enumerate(m[0]):
        if head.is_zero:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = head * det_cofactor(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


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

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_poly([[P(1), P(2)]])

    def test_zero_row(self):
        m = [[P(), P()], [P(1), P(2)]]
        assert det_poly(m).is_zero

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
        from fractions import Fraction
        rng = random.Random(19)
        n = 15
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        work = [[Fraction(x) for x in row] for row in m]
        det = Fraction(1)
        for k in range(n):
            pivot_row = next((i for i in range(k, n) if work[i][k]), None)
            if pivot_row is None:
                det = Fraction(0)
                break
            if pivot_row != k:
                work[k], work[pivot_row] = work[pivot_row], work[k]
                det = -det
            det *= work[k][k]
            for i in range(k + 1, n):
                factor = work[i][k] / work[k][k]
                for j in range(k, n):
                    work[i][j] -= factor * work[k][j]
        assert det.denominator == 1
        got = det_poly([[P(x) for x in row] for row in m])
        assert got == P(int(det))

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

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly([[1, 2, 3], [4, 5, 6]])
