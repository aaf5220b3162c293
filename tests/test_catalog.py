import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from zetaforge import catalog, zeta
from zetaforge.catalog import (DIMER_FLAG_ERRATA, CatalogError,
                               CatalogRecord, ade_graph, dimer_graph,
                               dimer_rh, dimer_zeta_closed, load_catalog,
                               parse_ade_spec, quiver_to_graph,
                               verify_catalog)
from zetaforge.cli import main
from zetaforge.graphs import (MixedGraph, bipartition, degree_profile,
                              matrices, normalize)
from zetaforge.intpoly import IntPoly
from zetaforge.rootfind import find_roots
from zetaforge.zeta import (STRONG, WEAK, adjacency_spectrum, analyze,
                            zeta_inverse)


def P(*coeffs):
    return IntPoly(coeffs)


class TestAdeGenerator:
    def test_plain_cycle(self):
        g = ade_graph("A", 2)
        assert g.node_count == 3 and len(g.edges) == 3

    def test_single_node_with_loops(self):
        g = ade_graph("A", 0, with_loops=True)
        assert g.edges == ((0, 0),) * 3
        assert [dict(r) for r in matrices(g).adjacency] == [{0: 6}]

    def test_doubled_edge_at_index_one(self):
        g = ade_graph("A", 1)
        assert g.edges == ((0, 1), (0, 1))

    def test_star_with_loops_matches_reference_row(self):
        g = ade_graph("D", 4, with_loops=True)
        assert g.node_count == 5 and len(g.edges) == 4 + 10
        expect = -1 * (P(-1, 1) ** 10 * P(1, 1) ** 9 * P(-1, 2) ** 6
                       * P(-1, 7, -16, 28))
        assert zeta_inverse(g) == expect

    def test_tree_shapes(self):
        for family, index, nodes in (("D", 6, 7), ("E", 6, 7), ("E", 7, 8),
                                     ("E", 8, 9)):
            g = ade_graph(family, index)
            assert g.node_count == nodes
            assert len(g.edges) == nodes - 1  # a tree
            assert zeta_inverse(g) == P(1)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            ade_graph("A", -1)
        with pytest.raises(ValueError):
            ade_graph("D", 3)
        with pytest.raises(ValueError):
            ade_graph("E", 9)
        with pytest.raises(ValueError):
            ade_graph("F", 4)

    def test_bool_index_rejected(self):
        """True is not read as index 1 (the doubled edge)."""
        with pytest.raises(TypeError, match="index True is not an int"):
            ade_graph("A", True)

    def test_float_index_rejected(self):
        """A float index fails at the check, not as a node_count error."""
        with pytest.raises(TypeError, match="index 6.0 is not an int"):
            ade_graph("E", 6.0)

    def test_non_str_family_rejected(self):
        """A family that is not a str fails at the check, not as an
        AttributeError of .upper()."""
        for family in (6, None, b"A"):
            with pytest.raises(TypeError, match="is not a str"):
                ade_graph(family, 6)

    def test_parse_spec(self):
        assert parse_ade_spec("a2") == ("A", 2)
        assert parse_ade_spec("E8") == ("E", 8)
        with pytest.raises(ValueError):
            parse_ade_spec("Q1")
        with pytest.raises(ValueError):
            parse_ade_spec("Ax")

    def test_loop_decorated_index_one_reference_pin(self):
        # No trustworthy external value exists for this row (the printed
        # one is inconsistent with every A/Q convention); frozen engine
        # output for the doubled-edge diagram is the shipped reference.
        got = zeta_inverse(ade_graph("A", 1, with_loops=True))
        assert got == P(1, 0, -1) ** 4 * P(1, -6, 5) * P(1, -2, 5)
        assert got == P(1, -8, 18, -8, -57, 112, 28, -208, 63, 152,
                        -78, -40, 25)


class TestDimer:
    def test_pair_matrices(self):
        b = matrices(dimer_graph([3]))
        assert b.adjacency == ({1: 3}, {0: 3})
        assert b.arrows == ({}, {})
        assert [sum(a.values()) - sum(p.values()) - 1
                for a, p in zip(b.adjacency, b.arrows)] == [2, 2]

    def test_single_edge_pair(self):
        g = dimer_graph([1])
        assert g.node_count == 2 and len(g.edges) == 1

    def test_closed_form_square_tiling(self):
        assert dimer_zeta_closed([4]) == P(1, 0, -1) ** 2 * \
            P(1, 0, -10, 0, 9)

    def test_closed_form_mixed(self):
        assert dimer_zeta_closed([3, 4]) == P(1, 0, -1) ** 3 * \
            P(1, 0, -15, 0, 63, 0, -85, 0, 36)

    def test_closed_form_degenerate(self):
        assert dimer_zeta_closed([1]) == P(1)

    def test_closed_form_equals_determinant_route(self):
        rng = random.Random(37)
        for _ in range(25):
            valencies = [rng.randint(1, 8)
                         for _ in range(rng.randint(1, 8))]
            assert dimer_zeta_closed(valencies) == \
                zeta_inverse(dimer_graph(valencies))

    def test_valency_inequality(self):
        assert dimer_rh([3, 3, 3, 3])
        assert not dimer_rh([3, 3, 4])
        assert dimer_rh([3, 3, 3, 5])  # boundary case is allowed

    def test_pole_locations(self):
        valencies = [2, 3, 5]
        roots = find_roots(dimer_zeta_closed(valencies))
        expected = {1.0, -1.0}
        for r in valencies:
            if r >= 2:
                expected.update({1 / (r - 1), -1 / (r - 1)})
        got = {round(root.real, 8) for root, _ in roots}
        assert got == {round(x, 8) for x in expected}
        assert all(abs(root.imag) < 1e-8 for root, _ in roots)

    def test_bipartite_with_negative_perron_eigenvalue(self):
        g = dimer_graph([4, 4])
        assert bipartition(g) is not None
        profile = degree_profile(g)
        assert profile.is_regular
        eigs = [round(lam.real, 8) for lam, _ in adjacency_spectrum(g)]
        assert -profile.max_degree in eigs

    def test_bad_valencies(self):
        with pytest.raises(ValueError):
            dimer_graph([])
        with pytest.raises(ValueError):
            dimer_zeta_closed([0])


class TestQuiverDecode:
    def test_loops_and_edges(self):
        g = quiver_to_graph([[2, 2], [2, 2]])
        assert g.edges == ((0, 0), (0, 1), (0, 1), (1, 1))
        assert g.arrows == ()

    def test_chiral_surplus(self):
        g = quiver_to_graph([[0, 3], [1, 0]])
        assert g.edges == ((0, 1),)
        assert g.arrows == ((0, 1), (0, 1))

    def test_rejects_odd_diagonal(self):
        with pytest.raises(ValueError):
            quiver_to_graph([[1]])

    def test_round_trips_through_adjacency(self):
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randint(1, 5)
            m = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                m[i][i] = 2 * rng.randint(0, 2)
            g = quiver_to_graph(m)
            assert [[r.get(j, 0) for j in range(n)]
                    for r in matrices(g).adjacency] == m
            assert normalize(g) == g
            for i in range(n):
                for j in range(i + 1, n):
                    assert g.edges.count((i, j)) == min(m[i][j], m[j][i])

    def test_one_pass_equals_normalized_raw_arrows(self):
        """The decode pairs reciprocal arrows itself; it must equal the
        graph of every off-diagonal entry as that many arrows, normalized,
        on matrices with loops, reciprocal and repeated arrows and zero
        rows."""
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(1, 8)
            m = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(n)]
                 for _ in range(n)]
            for i in range(n):
                m[i][i] = 2 * rng.randint(0, 2)
            if rng.random() < 0.3:
                m[rng.randrange(n)] = [0] * n
            loops = [(i, i) for i in range(n) for _ in range(m[i][i] // 2)]
            arrows = [(i, j) for i in range(n) for j in range(n) if i != j
                      for _ in range(m[i][j])]
            assert quiver_to_graph(m) == normalize(
                MixedGraph(n, loops, arrows)), m

    def test_malformed_messages_are_exact(self):
        for m, message in (
                ([], "quiver matrix must be a non-empty list of rows"),
                ("01", "quiver matrix must be a non-empty list of rows"),
                ([[0, 1], [1]], "quiver matrix is not square"),
                ([[0, 1], 5], "quiver matrix is not square"),
                ([[0, None], [1, 0]],
                 "quiver matrix entries must be integers"),
                ([[0, 1], [1, 3]],
                 "diagonal entry 3 at node 1 is not twice a loop count"),
                ([[-2]],
                 "diagonal entry -2 at node 0 is not twice a loop count"),
                ([[0, 1], [-1, 0]],
                 "negative multiplicity in quiver matrix")):
            with pytest.raises(ValueError) as err:
                quiver_to_graph(m)
            assert str(err.value) == message, m

    def test_rejects_non_integers(self):
        for m in ([[0, 1.5], [0, 0]], [[0, True], [False, 0]], [[2.0]],
                  [[0, "1"], [1, 0]]):
            with pytest.raises(ValueError, match="must be integers"):
                quiver_to_graph(m)
        # the other messages stand
        with pytest.raises(ValueError, match="not twice a loop count"):
            quiver_to_graph([[0, 1], [1, 3]])
        with pytest.raises(ValueError, match="negative multiplicity"):
            quiver_to_graph([[0, 1], [-1, 0]])


class TestCatalogData:
    def test_loads_41_records(self):
        records = load_catalog()
        assert len(records) == 41
        assert [r.id for r in records] == list(range(1, 42))

    def test_first_rows(self):
        records = load_catalog()
        assert records[0].quiver == ((6,),)
        assert records[0].valencies == (3,)
        assert records[1].quiver == ((0, 2), (2, 0))
        assert records[1].valencies == (4,)
        assert records[1].quiver_zeta == P(1, 0, -1) ** 2

    def test_flags_well_formed(self):
        for rec in load_catalog():
            assert rec.dimer_flag in ("S", "W", "N")
            assert rec.quiver_flag in ("S", "W", "N")
            assert rec.dimer_zeta.constant_term == 1
            assert rec.quiver_zeta.constant_term == 1

    def test_truncated_file_names_record(self, tmp_path):
        truncated = [{"id": 1, "quiver": [[6]], "valencies": [3],
                      "dimer_zeta": [1, 0, -6, 0, 9, 0, -4], "quiver_zeta": [1],
                      "dimer_flag": "S"}]  # quiver_flag missing
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(truncated))
        with pytest.raises(CatalogError, match="record 1"):
            load_catalog(str(path))
        path.write_text("[{]")
        with pytest.raises(CatalogError, match="JSON"):
            load_catalog(str(path))
        with pytest.raises(CatalogError, match="cannot read"):
            load_catalog(str(tmp_path / "missing.json"))

    def test_booleans_and_bare_rows_rejected(self, tmp_path):
        """JSON true is not an integer: not in the quiver, the valencies
        or the zeta coefficients; a quiver row must be a list."""
        good = {"id": 1, "quiver": [[6]], "valencies": [3],
                "dimer_zeta": [1, 0, -6, 0, 9, 0, -4],
                "quiver_zeta": [1, -6, 3, 12, -9, -6, 5],
                "dimer_flag": "S", "quiver_flag": "S"}
        path = tmp_path / "cat.json"
        for field, value, message in (
                ("quiver", [[True]], "quiver"),
                ("quiver", [6], "quiver"),
                ("valencies", [True], "valency"),
                ("dimer_zeta", [True, 0, -1], "dimer_zeta"),
                ("quiver_zeta", [1, True], "quiver_zeta")):
            path.write_text(json.dumps([dict(good, **{field: value})]))
            with pytest.raises(CatalogError, match=message):
                load_catalog(str(path))
        path.write_text(json.dumps([good]))
        assert len(load_catalog(str(path))) == 1

    def test_structure_errors_are_exact(self, tmp_path):
        """A document that is not a list, a record that is not an object,
        a zeta list whose constant term is not 1, and a flag outside S, W
        and N (Trivial's T included) each raise their own message."""
        good = {"id": 4, "quiver": [[6]], "valencies": [3],
                "dimer_zeta": [1, 0, -6, 0, 9, 0, -4],
                "quiver_zeta": [1, -6, 3, 12, -9, -6, 5],
                "dimer_flag": "S", "quiver_flag": "S"}
        path = tmp_path / "cat.json"
        for doc, message in (
                ({"records": [good]},
                 "catalog must be a JSON list of records"),
                ("S", "catalog must be a JSON list of records"),
                ([good, [good]], "record 2: not an object"),
                ([dict(good, dimer_zeta=[2, 1])],
                 "record 1 (id 4): dimer_zeta constant term is 2, "
                 "expected 1"),
                ([dict(good, quiver_zeta=[0, 1])],
                 "record 1 (id 4): quiver_zeta constant term is 0, "
                 "expected 1"),
                ([dict(good, dimer_flag="T")],
                 "record 1 (id 4): dimer_flag must be S, W or N"),
                ([dict(good, quiver_flag="s")],
                 "record 1 (id 4): quiver_flag must be S, W or N"),
                ([dict(good, quiver_flag=["S"])],
                 "record 1 (id 4): quiver_flag must be S, W or N")):
            path.write_text(json.dumps(doc))
            with pytest.raises(CatalogError) as err:
                load_catalog(str(path))
            assert str(err.value) == message, doc

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no integer-string limit in this Python")
    def test_integer_past_the_string_limit_is_not_valid_json(self, tmp_path,
                                                             capsys):
        """json raises a plain ValueError, not a JSONDecodeError, on an
        integer literal longer than the integer-string limit; it is still
        a CatalogError, and catalog-verify exits 2."""
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        path = tmp_path / "cat.json"
        path.write_text('[{"id": 1, "dimer_zeta": [1, %s]}]' % digits)
        with pytest.raises(CatalogError) as err:
            load_catalog(str(path))
        assert str(err.value).startswith(
            "catalog is not valid JSON: Exceeds the limit")
        assert main(["catalog-verify", "--catalog", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            "zetaforge: catalog is not valid JSON: Exceeds the limit")

    def test_file_not_in_utf8_is_not_valid_json(self, tmp_path, capsys):
        """A catalog whose bytes are not UTF-8 is a CatalogError worded
        as the --graph reader words it, and catalog-verify exits 2."""
        path = tmp_path / "cat.json"
        path.write_bytes(b"\xff[]")
        message = ("catalog is not valid JSON: 'utf-8' codec can't decode "
                   "byte 0xff in position 0: invalid start byte")
        with pytest.raises(CatalogError) as err:
            load_catalog(str(path))
        assert str(err.value) == message
        assert main(["catalog-verify", "--catalog", str(path)]) == 2
        assert capsys.readouterr() == ("", f"zetaforge: {message}\n")

    def test_ids_are_unique_integers(self, tmp_path):
        """An id that is not an int (true counts as not an int) or that an
        earlier record already has is a CatalogError."""
        good = {"id": 1, "quiver": [[6]], "valencies": [3],
                "dimer_zeta": [1, 0, -6, 0, 9, 0, -4],
                "quiver_zeta": [1, -6, 3, 12, -9, -6, 5],
                "dimer_flag": "S", "quiver_flag": "S"}
        path = tmp_path / "cat.json"
        for ids, message in (([True], "record 1: id"),
                             (["x"], "record 1: id"),
                             ([31.0], "record 1: id"),
                             ([1, 2, True], "record 3: id"),
                             ([1, 1], "record 2: duplicate id 1"),
                             ([2, 1, 2], "record 3: duplicate id 2")):
            path.write_text(json.dumps([dict(good, id=i) for i in ids]))
            with pytest.raises(CatalogError, match=message):
                load_catalog(str(path))
        path.write_text(json.dumps([dict(good, id=i) for i in (3, 1, 2)]))
        assert [r.id for r in load_catalog(str(path))] == [3, 1, 2]

    def test_only_a_path_names_the_catalog(self, tmp_path, monkeypatch,
                                           capsys):
        """load_catalog(path) and --catalog PATH name the catalog file; no
        environment variable does, so ZETAFORGE_CATALOG pointing at a
        one-record file leaves the default at the 41 bundled records."""
        path = tmp_path / "cat.json"
        path.write_text(json.dumps([{
            "id": 1, "quiver": [[6]], "valencies": [3],
            "dimer_zeta": [1, 0, -6, 0, 9, 0, -4],
            "quiver_zeta": [1, -6, 3, 12, -9, -6, 5],
            "dimer_flag": "S", "quiver_flag": "S"}]))
        monkeypatch.setenv("ZETAFORGE_CATALOG", str(path))
        assert len(load_catalog()) == 41
        assert len(load_catalog(str(path))) == 1
        assert main(["catalog-verify"]) == 0
        assert capsys.readouterr().out.endswith("41/41 records verified\n")
        assert main(["catalog-verify", "--catalog", str(path)]) == 0
        assert capsys.readouterr().out == ("record 1: ok\n"
                                           "1/1 records verified\n")

    def test_default_is_the_bundled_file(self):
        bundled = Path(catalog.__file__).parent / "data" / "tilings41.json"
        assert load_catalog() == load_catalog(str(bundled))

    def test_copied_package_verifies_its_catalog(self, tmp_path):
        """The bundled catalog is read from the package's own directory,
        so a copy of the package outside src, run without site-packages,
        finds and verifies it."""
        shutil.copytree(Path(catalog.__file__).parent,
                        tmp_path / "zetaforge",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(tmp_path),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "zetaforge.cli", "catalog-verify"],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.endswith("41/41 records verified\n")

    def test_empty_catalog_is_rejected(self, tmp_path, capsys):
        """A catalog with no records verifies nothing, so it is malformed
        rather than 0/0 verified."""
        path = tmp_path / "cat.json"
        path.write_text("[]")
        with pytest.raises(CatalogError, match="^catalog has no records$"):
            load_catalog(str(path))
        assert main(["catalog-verify", "--catalog", str(path)]) == 2
        assert capsys.readouterr() == ("",
                                       "zetaforge: catalog has no records\n")

    def test_bad_valency_list_names_its_record(self, tmp_path, capsys):
        """The valencies of a record are checked by the rule dimer_graph
        uses, with the record named."""
        good = {"id": 7, "quiver": [[6]], "valencies": [3],
                "dimer_zeta": [1, 0, -6, 0, 9, 0, -4],
                "quiver_zeta": [1, -6, 3, 12, -9, -6, 5],
                "dimer_flag": "S", "quiver_flag": "S"}
        path = tmp_path / "cat.json"
        expected = ("record 1 (id 7): bad valency list: expected a non-empty "
                    "list of integers >= 1")
        for valencies in ([], [0], [3.0], "3", {"3": 1}, None):
            path.write_text(json.dumps([dict(good, valencies=valencies)]))
            with pytest.raises(CatalogError) as err:
                load_catalog(str(path))
            assert str(err.value) == expected, valencies
            assert main(["catalog-verify", "--catalog", str(path)]) == 2
            assert capsys.readouterr() == ("", f"zetaforge: {expected}\n")

    def test_undecodable_quiver_names_its_record(self, tmp_path, capsys):
        """A quiver that loads must decode: an odd diagonal or a negative
        entry is a CatalogError naming the record, and catalog-verify
        exits 2 with that message."""
        good = {"id": 7, "quiver": [[6]], "valencies": [3],
                "dimer_zeta": [1, 0, -6, 0, 9, 0, -4],
                "quiver_zeta": [1, -6, 3, 12, -9, -6, 5],
                "dimer_flag": "S", "quiver_flag": "S"}
        path = tmp_path / "cat.json"
        for quiver, message in (
                ([[3]], "diagonal entry 3 at node 0 is not twice a loop "
                        "count"),
                ([[0, -1], [0, 0]], "negative multiplicity in quiver "
                                    "matrix"),
                ([], "quiver matrix must be a non-empty list of rows"),
                ([[0, 1], [1]], "quiver matrix is not square")):
            path.write_text(json.dumps([dict(good, quiver=quiver)]))
            expected = f"record 1 (id 7): {message}"
            with pytest.raises(CatalogError) as err:
                load_catalog(str(path))
            assert str(err.value) == expected
            assert main(["catalog-verify", "--catalog", str(path)]) == 2
            assert capsys.readouterr() == ("", f"zetaforge: {expected}\n")


class TestVerification:
    def test_full_catalog_verifies(self):
        result = verify_catalog(load_catalog())
        assert result.ok
        assert len(result.rows) == 41

    def test_empty_record_list_is_rejected(self):
        """No records verify nothing: verify_catalog rejects an empty list
        by the rule and message of load_catalog."""
        with pytest.raises(CatalogError, match="^catalog has no records$"):
            verify_catalog([])

    def test_known_erratum_is_note_not_failure(self):
        result = verify_catalog(load_catalog())
        erratum_rows = [r for r in result.rows
                        if r.record_id in DIMER_FLAG_ERRATA]
        assert len(erratum_rows) == 1
        assert erratum_rows[0].ok
        assert any("tiling flag" in note for note in erratum_rows[0].notes)

    def test_quiver_flag_across_strong_annulus_is_issue(self):
        """Only q differs between the two degree conventions, and the
        strong annulus does not depend on q: a reference flag on the other
        side of it from the computed one is an issue, never a note."""
        records = load_catalog()
        computed = {rec.id: analyze(quiver_to_graph(rec.quiver))
                    .classification for rec in records}
        swapped = [(rec, "W" if computed[rec.id] == STRONG else "S")
                   for rec in records if computed[rec.id] in (STRONG, WEAK)]
        assert [flag for _, flag in swapped].count("W") == 18
        assert len(swapped) == 18 + 21
        for rec, flag in swapped:
            bad = CatalogRecord(rec.id, rec.quiver, rec.valencies,
                                rec.dimer_zeta, rec.quiver_zeta,
                                rec.dimer_flag, flag)
            row = verify_catalog([bad]).rows[0]
            other = "W" if flag == "S" else "S"
            assert row.issues == [
                f"quiver flag {other} differs from reference {flag}"]
            assert not any(n.startswith("quiver flag") for n in row.notes)

    def test_row_sum_convention_notes(self):
        """The quivers that are Weak under the total degree and Violated
        under the row-sum degree, as their references say, are notes."""
        rows = verify_catalog(load_catalog()).rows
        noted = [row.record_id for row in rows
                 if any(n.startswith("quiver flag W under the total-degree "
                                     "convention") for n in row.notes)]
        assert noted == [12, 14, 23, 24, 28, 29, 30, 31, 32, 33, 35, 36, 39]
        assert all(row.ok and not row.issues for row in rows)

    def test_corrupted_polynomial_is_hard_issue(self):
        records = load_catalog()
        bad = records[0].__class__(
            records[0].id, records[0].quiver, records[0].valencies,
            records[0].dimer_zeta + IntPoly((0, 1)),
            records[0].quiver_zeta, records[0].dimer_flag,
            records[0].quiver_flag)
        result = verify_catalog([bad])
        assert not result.ok

    def test_valency_test_against_annulus_is_issue(self, monkeypatch):
        real = catalog.dimer_rh
        monkeypatch.setattr(catalog, "dimer_rh", lambda v: not real(v))
        row = verify_catalog(load_catalog()[:1]).rows[0]
        assert row.issues == [
            "valency inequality disagrees with the annulus test"]

    def test_each_distinct_dimer_is_verified_once(self, monkeypatch):
        seen = []
        real = catalog._verdict

        def spy(g, found):
            seen.append(g)
            return real(g, found)

        monkeypatch.setattr(catalog, "_verdict", spy)
        records = load_catalog()
        assert verify_catalog(records).ok
        dimers = {dimer_graph(list(rec.valencies)) for rec in records}
        assert len(dimers) == 15
        assert sorted(seen.count(g) for g in dimers) == [1] * 15
        assert len(seen) == 15 + len(records)  # and one per quiver
        # the memo lives in one call: a second call verifies them again
        verify_catalog(records[:1])
        assert len(seen) == 15 + len(records) + 2

    def test_each_distinct_polynomial_is_rooted_once(self, monkeypatch):
        """The 15 tiling and 41 quiver polynomials of the bundled catalog
        are 51 distinct ones (records 5/38/41, 16/40, 29/31 and 30/33
        share their quiver polynomial), so one call finds 51 root sets;
        the memo lives in one call, so a second call finds them again."""
        rooted = []
        real = zeta.find_roots

        def spy(p):
            rooted.append(p)
            return real(p)

        monkeypatch.setattr(zeta, "find_roots", spy)
        records = load_catalog()
        assert verify_catalog(records).ok
        assert len(rooted) == 51 and len(set(rooted)) == 51
        shared = {}
        for rec in records:
            shared.setdefault(rec.quiver_zeta, []).append(rec.id)
        assert sorted(ids for ids in shared.values() if len(ids) > 1) == [
            [5, 38, 41], [16, 40], [29, 31], [30, 33]]
        assert verify_catalog(records).ok
        assert len(rooted) == 102 and set(rooted[51:]) == set(rooted[:51])

    def test_rows_are_per_record(self):
        """A record that shares its valencies with good ones but carries
        a wrong tiling polynomial or flag fails alone, with the messages
        it gets when verified by itself."""
        records = load_catalog()
        first = records[0]
        bad_zeta = CatalogRecord(
            1000, first.quiver, first.valencies,
            first.dimer_zeta + IntPoly((0, 1)), first.quiver_zeta,
            first.dimer_flag, first.quiver_flag)
        bad_flag = CatalogRecord(
            1001, first.quiver, first.valencies, first.dimer_zeta,
            first.quiver_zeta, "N" if first.dimer_flag != "N" else "S",
            first.quiver_flag)
        mixed = [first, bad_zeta] + records[1:] + [bad_flag, first]
        rows = verify_catalog(mixed).rows
        alone = [verify_catalog([rec]).rows[0] for rec in mixed]
        assert rows == alone
        assert [row.ok for row in rows] == \
            [True, False] + [True] * (len(records) - 1) + [False, True]

    def test_valency_test_matches_annulus_on_all_records(self):
        for rec in load_catalog():
            valencies = list(rec.valencies)
            strong = analyze(dimer_graph(valencies)).classification == STRONG
            assert dimer_rh(valencies) == strong

    def test_symmetric_adjacency_gives_real_spectrum(self):
        for rec in load_catalog():
            for g in (dimer_graph(list(rec.valencies)),
                      normalize(quiver_to_graph(rec.quiver))):
                if not g.is_undirected:
                    continue
                for lam, _ in adjacency_spectrum(g):
                    assert abs(lam.imag) < 1e-8
