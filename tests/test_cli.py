import json
import math
import sys

import pytest

from test_rootfind import decimal_root
from zetaforge import census, cli, rootfind
from zetaforge.catalog import ade_graph
from zetaforge.cli import main
from zetaforge.graphs import MixedGraph
from zetaforge.intpoly import (log_derivative_series, mobius_invert,
                               squarefree_factors)
from zetaforge.zeta import zeta_inverse


# a random mixed multigraph: 15 nodes, 45 edges, 15 arrows
MIXED15 = {
    "nodes": 15,
    "edges": [[3, 6], [9, 5], [13, 14], [7, 7], [4, 11], [6, 5], [1, 0],
              [6, 4], [5, 12], [7, 8], [4, 5], [4, 0], [1, 10], [11, 11],
              [13, 5], [3, 12], [9, 2], [12, 6], [9, 2], [12, 7], [9, 11],
              [1, 2], [8, 3], [4, 12], [2, 2], [11, 8], [5, 11], [10, 0],
              [7, 14], [1, 8], [13, 11], [7, 7], [14, 13], [8, 10], [12, 5],
              [10, 14], [3, 7], [7, 5], [2, 5], [7, 11], [10, 8], [6, 11],
              [5, 10], [13, 9], [9, 4]],
    "arrows": [[0, 1], [9, 8], [5, 14], [7, 6], [0, 2], [0, 2], [10, 6],
               [13, 11], [4, 0], [8, 3], [10, 3], [9, 0], [8, 6], [3, 0],
               [12, 5]],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZetaVerb:
    def test_cycle_coefficients(self, capsys):
        code, out, _ = run(capsys, "zeta", "--ade", "A2")
        assert code == 0
        assert out.strip() == "1, 0, 0, -2, 0, 0, 1"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "zeta", "--dimer", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["zeta_inverse"] == \
            ["1", "0", "-12", "0", "30", "0", "-28", "0", "9"]

    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": 2, "edges": [[0, 1], [1, 1]],
                                    "arrows": [[1, 0]]}))
        code, out, _ = run(capsys, "zeta", "--graph", str(path))
        assert code == 0
        assert out.strip() == "1, -2, 0, 0, 1"

    def test_empty_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        code, _, err = run(capsys, "zeta", "--graph", str(path))
        assert code == 2
        assert "JSON" in err

    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "zeta", "--graph", str(tmp_path / "no.json"))
        assert code == 2

    def test_json_booleans_are_parse_errors(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        for doc in ({"nodes": True, "edges": [[0, 0]]},
                    {"nodes": 2, "edges": [[0, True]]},
                    {"nodes": 2, "arrows": [[False, 1]]}):
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "zeta", "--graph", str(path))
            assert (code, out) == (2, ""), doc
            assert "must be a positive integer" in err or "node index" in err

    def test_malformed_pair_or_index_is_named(self, capsys, tmp_path):
        """A pair that is not a list of two entries is named as it was
        written, and an index that is not an integer is named as such,
        not as out of range."""
        path = tmp_path / "g.json"
        for doc, message in (
                ({"nodes": 3, "edges": [[0, 1, 2]]},
                 "edge [0, 1, 2] is not a pair of node indices"),
                ({"nodes": 3, "edges": ["01"]},
                 "edge '01' is not a pair of node indices"),
                ({"nodes": 3, "arrows": [[0, 1], [0, 1, 2]]},
                 "arrow [0, 1, 2] is not a pair of node indices"),
                ({"nodes": 3, "edges": [[0, 1.0]]},
                 "node index 1.0 is not an integer"),
                ({"nodes": 3, "arrows": [[True, 1]]},
                 "node index True is not an integer")):
            path.write_text(json.dumps(doc))
            assert run(capsys, "zeta", "--graph", str(path)) == (
                2, "", f"zetaforge: {path}: {message}\n"), doc

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no integer-string limit in this Python")
    def test_integer_past_the_string_limit_names_the_file(self, capsys,
                                                          tmp_path):
        """json raises a plain ValueError on an integer literal longer
        than the integer-string limit; the message names the file like
        every other malformed graph file's, and a format error stays a
        format error."""
        path = tmp_path / "g.json"
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        path.write_text('{"nodes": 2, "edges": [[0, %s]]}' % digits)
        code, out, err = run(capsys, "zeta", "--graph", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(
            f"zetaforge: {path}: not valid JSON: Exceeds the limit")
        path.write_text('{"nodes": 2, "edges": 5}')
        assert run(capsys, "zeta", "--graph", str(path)) == (
            2, "", f"zetaforge: {path}: 'edges' must be a list of [i, j] "
                   "pairs\n")

    def test_file_not_in_utf8_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_bytes(b'\xff{"nodes": 1}')
        code, out, err = run(capsys, "zeta", "--graph", str(path))
        assert (code, out) == (2, "") and err.startswith(
            f"zetaforge: {path}: not valid JSON: 'utf-8' codec can't decode")

    def test_normalizes_input(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": 2,
                                    "arrows": [[0, 1], [1, 0]]}))
        code, out, _ = run(capsys, "zeta", "--graph", str(path))
        assert code == 0
        assert out.strip() == "1"  # reciprocal pair folds into a tree edge

    def test_graph_file_reads_as_in_the_library(self, capsys, tmp_path):
        doc = {"nodes": 3, "edges": [[0, 0]],
               "arrows": [[0, 1], [1, 0], [1, 2], [2, 0]]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "zeta", "--graph", str(path))
        coeffs = zeta_inverse(MixedGraph.from_dict(doc)).coeffs
        assert code == 0 and coeffs == (1, -2, 1, -1, 0, 1)
        assert out == ", ".join(map(str, coeffs)) + "\n"


class TestRhVerb:
    def test_mixed_dimer_violates(self, capsys):
        code, out, _ = run(capsys, "rh", "--dimer", "3,4")
        assert code == 0
        assert "classification: Violated (N)" in out

    def test_triple_arrow_cycle_json(self, capsys):
        code, out, _ = run(capsys, "rh", "--ade", "A2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == "Strong"
        assert doc["ramanujan"] is True


class TestNumericalVerdicts:
    """Verdicts that used to rest on wrong or NaN float roots."""

    def test_large_cycles_are_ramanujan(self, capsys):
        for spec in ("A82", "A99"):
            code, out, _ = run(capsys, "rh", "--ade", spec, "--format", "json")
            assert code == 0
            doc = json.loads(out)
            assert doc["ramanujan"] is True and abs(doc["r_g"] - 1) < 1e-15

    def test_edgeless_graph(self, capsys, tmp_path):
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"nodes": 2, "edges": [], "arrows": []}))
        code, out, err = run(capsys, "rh", "--graph", str(path))
        assert code == 0 and err == ""
        assert "ramanujan: True" in out.splitlines()
        assert "classification: Trivial (T)" in out.splitlines()

    def test_unreliable_roots_exit_three(self, capsys):
        """The 100-cycle's eigenvalues and the loop-decorated D_n poles are
        beyond float64 Aberth: they fail the power-sum check."""
        cases = [("spectrum", "--ade", "A99")] + [
            ("rh", "--ade", f"D{n}", "--loops") for n in (20, 30, 40)]
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, ""), argv
            assert "power sum" in err

    def test_aberth_non_convergence_exits_three(self, capsys, monkeypatch):
        """An Aberth iteration that runs out of sweeps is a numerical
        failure: exit 3, the reason on stderr and no report."""
        monkeypatch.setattr(rootfind, "_MAX_ITER", 1)
        code, out, err = run(capsys, "rh", "--ade", "E6", "--loops")
        assert (code, out) == (3, "")
        assert err.startswith("zetaforge: Aberth iteration did not reach")
        assert err.count("\n") == 1

    def test_options_without_effect_are_usage_errors(self, capsys):
        """--tol and --merge changed nothing, and export-plot wrote CSV
        whatever its --format: none of them is an option any more."""
        graph = ("--ade", "A5")
        calls = [(verb, *graph) for verb in
                 ("zeta", "rh", "primes", "spectrum", "export-plot")]
        calls.append(("catalog-verify",))
        for argv in calls:
            assert run(capsys, *argv)[0] == 0, argv
            for extra in (("--tol", "1e-3"), ("--merge", "0.05")):
                code, out, err = run(capsys, *argv, *extra)
                assert (code, out) == (1, ""), (argv, extra)
                assert err.startswith("usage: zetaforge")
                assert f"unrecognized arguments: {' '.join(extra)}" in err
        code, out, err = run(capsys, "export-plot", *graph,
                             "--format", "json")
        assert (code, out) == (1, "")
        assert err.startswith("usage: zetaforge")
        assert "unrecognized arguments: --format json" in err

    def test_json_floats_are_finite_near_a_large_pole(self, capsys, tmp_path):
        """Degree 94 with a pole of modulus 5385: residual_bound used to
        evaluate the whole polynomial at each pole in float and printed
        NaN here."""
        path = tmp_path / "mixed15.json"
        path.write_text(json.dumps(MIXED15))
        code, out, _ = run(capsys, "rh", "--graph", str(path),
                           "--format", "json")
        assert code == 0

        def non_finite(name):
            raise AssertionError(f"{name} in rh --format json")

        doc = json.loads(out, parse_constant=non_finite)
        assert len(doc["zeta_inverse"]) == 95
        assert 0 < doc["residual_bound"] < 1e-11

    def test_pole_free_r_g_is_json_null(self, capsys, tmp_path):
        """A forest or an edgeless graph has no poles, so R_G is infinite:
        the JSON report says null (not the invalid token Infinity) and
        the text report still says inf."""
        def non_finite(name):
            raise AssertionError(f"{name} in rh --format json")

        for name, doc in (("tree", {"nodes": 2, "edges": [[0, 1]]}),
                          ("edgeless", {"nodes": 3, "edges": []})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            code, out, _ = run(capsys, "rh", "--graph", str(path),
                               "--format", "json")
            assert code == 0
            report = json.loads(out, parse_constant=non_finite)
            assert report["r_g"] is None and report["poles"] == []
            assert report["classification"] == "Trivial"
            code, out, _ = run(capsys, "rh", "--graph", str(path))
            assert code == 0 and "R_G: inf" in out.splitlines()

    def test_primes_keeps_its_counts_when_the_roots_fail(self, capsys):
        """D14 with loops fails find_roots' power-sum check, where primes
        once printed "-" for every ratio.  R_G is isolated exactly now:
        exit 0, nothing on stderr, the same counts, and each ratio the one
        that the 60-digit decimal root on its square-free factor gives."""
        code, out, err = run(capsys, "primes", "--ade", "D14", "--loops",
                             "-L", "3")
        assert (code, err) == (0, "")
        rows = [line.split() for line in out.splitlines()[2:]]
        assert [int(row[2]) for row in rows] == [60, 60, 120]
        zi = zeta_inverse(ade_graph("D", 14, with_loops=True))
        factor = next(f for f, _ in squarefree_factors(zi) if f.degree > 1)
        r_g = decimal_root(factor, complex(0.200662960196)).real
        ratios = {m: pi * m * r_g ** m for m, pi in zip((1, 2, 3),
                                                        (60, 60, 120))}
        assert [row[-1] for row in rows] == [f"{ratios[m]:.12g}"
                                             for m in (1, 2, 3)]
        code, out, err = run(capsys, "primes", "--ade", "D14", "--loops",
                             "-L", "3", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["pnt_ratios"] == {
            str(m): ratio for m, ratio in ratios.items()}


class TestPrimesVerb:
    def test_no_prime_computes_no_r_g(self, capsys, monkeypatch):
        """A cycle of 10 nodes has no prime within the horizon 6, so it has
        no ratio, and R_G is not computed."""
        calls = []
        least_positive_root = cli.least_positive_root

        def spy(poly):
            calls.append(poly)
            return least_positive_root(poly)

        monkeypatch.setattr(cli, "least_positive_root", spy)
        code, out, err = run(capsys, "primes", "--ade", "A9", "-L", "6",
                             "--format", "json")
        assert (code, err, calls) == (0, "", [])
        doc = json.loads(out)
        assert doc["delta"] == 0 and doc["pnt_ratios"] == {}
        assert doc["prime_counts"] == [0] * 6
        # the spy sees the call where there is a prime
        code, out, _ = run(capsys, "primes", "--ade", "A9", "-L", "10",
                           "--format", "json")
        assert code == 0 and len(calls) == 1
        assert json.loads(out)["pnt_ratios"].keys() == {"10"}

    def test_primes_calls_no_rootfind_function(self, capsys):
        """R_G comes from intpoly alone: a profiler hook sees no function
        of rootfind run in a primes call, with a prime or without, and cli
        does not import find_roots.  The hook does see rh's calls."""
        called = []

        def hook(frame, event, arg):
            if (event == "call"
                    and frame.f_code.co_filename == rootfind.__file__):
                called.append(frame.f_code.co_name)

        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            codes = [run(capsys, "primes", *source, "-L", "6")[0]
                     for source in (("--ade", "D14", "--loops"),
                                    ("--ade", "A9"), ("--dimer", "3,4,5"))]
            primes_called = list(called)
            codes.append(run(capsys, "rh", "--ade", "A2")[0])
        finally:
            sys.setprofile(previous)
        assert (codes, primes_called) == ([0] * 4, [])
        assert "find_roots" in called
        assert not hasattr(cli, "find_roots")

    def test_integral_miscount_exits_3(self, capsys, monkeypatch):
        """N_L + L at the horizon L is the count of one more prime class
        of length L, so its Moebius inversion is integral and the census
        accepts it; the series of 1/zeta catches it."""
        true_counts = census.count_closed_paths

        def miscount(g, horizon):
            counts = true_counts(g, horizon)
            counts[-1] += horizon
            return counts

        monkeypatch.setattr(census, "count_closed_paths", miscount)
        assert census.enumerate_primes(ade_graph("A", 2), 6).prime_counts == [
            0, 0, 2, 0, 0, 1]
        code, out, err = run(capsys, "primes", "--ade", "A2", "-L", "6")
        assert (code, out) == (3, "")
        assert "closed-walk count mismatch at length 6" in err

    def test_triangle_table(self, capsys):
        code, out, _ = run(capsys, "primes", "--ade", "A2", "-L", "6")
        assert code == 0
        lines = out.strip().splitlines()
        row3 = next(l for l in lines if l.split()[0] == "3")
        assert row3.split()[1] == "6" and row3.split()[2] == "2"

    def test_horizon_validation(self, capsys):
        for horizon in ("31", "0"):
            code, _, _ = run(capsys, "primes", "--ade", "A2", "-L", horizon)
            assert code == 1, horizon

    def test_horizon_limit(self, capsys):
        """At L = 30 the counts of D4 with loops equal the series of
        1/zeta and its inversion, and all 30 ratios are finite."""
        assert cli.HORIZON_LIMIT == 30
        code, out, err = run(capsys, "primes", "--ade", "D4", "--loops",
                             "-L", "30", "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        series = log_derivative_series(
            zeta_inverse(ade_graph("D", 4, with_loops=True)), 30)
        assert doc["closed_counts"] == series
        assert doc["prime_counts"] == mobius_invert(series)
        ratios = doc["pnt_ratios"]
        assert sorted(map(int, ratios)) == list(range(1, 31))
        assert all(map(math.isfinite, ratios.values()))

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "primes", "--ade", "A2", "-L", "3",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "m,closed_walks,primes,pnt_ratio"


class TestSpectrumVerb:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--dimer", "4")
        assert code == 0
        assert "multiplicity" in out


class TestGenerateVerbs:
    def test_ade_graph_json(self, capsys):
        code, out, _ = run(capsys, "ade", "A2")
        assert code == 0
        doc = json.loads(out)
        assert doc["nodes"] == 3 and len(doc["edges"]) == 3

    def test_dimer_graph_json(self, capsys):
        code, out, _ = run(capsys, "dimer", "3,4")
        assert code == 0
        doc = json.loads(out)
        assert doc["nodes"] == 4 and len(doc["edges"]) == 7

    def test_bad_spec_is_usage_error(self, capsys):
        assert run(capsys, "ade", "Q9")[0] == 1
        assert run(capsys, "zeta", "--dimer", "3,x")[0] == 1
        assert run(capsys, "dimer", "0")[0] == 1
        assert run(capsys, "dimer", "3,x")[0] == 1

    def test_spec_numbers_are_ascii_digit_runs(self, capsys):
        """int() would read these as A10, A3, A3 and 3,4: underscores,
        signs and non-ASCII digits are rejected, not coerced."""
        for spec in ("A1_0", "A+3", "A\u0663", "D\uff14"):
            code, out, err = run(capsys, "zeta", "--ade", spec)
            assert (code, out) == (1, ""), spec
            assert "bad diagram index" in err
        for spec in ("3,+4", "3,4_0", "\u0663"):
            assert run(capsys, "zeta", "--dimer", spec)[:2] == (1, ""), spec

    def test_empty_valency_items_are_rejected(self, capsys):
        for spec in ("3,,4", ",3", "3,4,", "3, ,4", ""):
            code, out, err = run(capsys, "zeta", "--dimer", spec)
            assert (code, out) == (1, ""), spec
            assert "bad valency list" in err
        assert run(capsys, "dimer", "3,,4")[:2] == (1, "")

    def test_whitespace_around_numbers_is_still_accepted(self, capsys):
        assert run(capsys, "zeta", "--ade", " a2 ") == \
            run(capsys, "zeta", "--ade", "A2")
        assert run(capsys, "zeta", "--dimer", " 3, 4 ") == \
            run(capsys, "zeta", "--dimer", "3,4")


class TestExportPlot:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "export-plot", "--ade", "A2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re,im,kind"
        kinds = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert kinds == {"pole", "eigenvalue"}
        assert len([l for l in lines if l.endswith("pole")]) == 6
        assert len([l for l in lines if l.endswith("eigenvalue")]) == 3

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "pts.csv"
        code, out, _ = run(capsys, "export-plot", "--dimer", "3",
                           "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("re,im,kind")

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        """--out into a missing directory: exit 1, a one-line message on
        stderr, nothing on stdout, for a computation verb and for ade."""
        target = str(tmp_path / "missing" / "x")
        for argv in (("zeta", "--ade", "A2"), ("export-plot", "--dimer", "3"),
                     ("ade", "A2")):
            code, out, err = run(capsys, *argv, "--out", target)
            assert code == 1 and out == ""
            assert err.startswith(f"zetaforge: cannot write {target}: ")
            assert "Traceback" not in err


class TestOutFile:
    def test_out_holds_what_stdout_would(self, capsys, tmp_path):
        """For every verb and format, --out PATH writes exactly the bytes
        that stdout gets without it, with the same exit code and stderr,
        and stdout stays empty; a mismatching catalog still exits 4."""
        bad = [{"id": 1, "quiver": [[6]], "valencies": [3],
                "dimer_zeta": [1, 0, -6, 0, 9, 0, -4],
                "quiver_zeta": [1, -6, 3, 12, -9, -6, 4],  # wrong tail
                "dimer_flag": "S", "quiver_flag": "S"}]
        mismatch = tmp_path / "cat.json"
        mismatch.write_text(json.dumps(bad))
        source = ["--ade", "D5", "--loops"]
        calls = [[verb, *source, *extra, "--format", fmt]
                 for verb, extra in (("zeta", []), ("primes", ["-L", "4"]),
                                     ("spectrum", []))
                 for fmt in ("text", "json", "csv")]
        calls += [["rh", *source, "--format", fmt] for fmt in ("text", "json")]
        calls += [["export-plot", *source], ["ade", "E6", "--loops"],
                  ["dimer", "3,4"]]
        calls += [["catalog-verify", *extra, "--format", fmt]
                  for extra in ([], ["--catalog", str(mismatch)])
                  for fmt in ("text", "json")]
        target = tmp_path / "out.txt"
        codes = []
        for argv in calls:
            code, out, err = run(capsys, *argv)
            assert out
            assert run(capsys, *argv, "--out", str(target)) == (code, "", err)
            assert target.read_bytes() == out.encode("utf-8"), argv
            codes.append(code)
        assert codes == [0] * 16 + [4, 4]


class TestCatalogVerify:
    def test_ok_exit_zero(self, capsys):
        code, out, _ = run(capsys, "catalog-verify")
        assert code == 0
        assert "41/41 records verified" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "catalog-verify")
        _, second, _ = run(capsys, "catalog-verify")
        assert first == second

    def test_mismatch_exit_four(self, capsys, tmp_path):
        bad = [{"id": 1, "quiver": [[6]], "valencies": [3],
                "dimer_zeta": [1, 0, -6, 0, 9, 0, -4],
                "quiver_zeta": [1, -6, 3, 12, -9, -6, 4],  # wrong tail
                "dimer_flag": "S", "quiver_flag": "S"}]
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "catalog-verify", "--catalog", str(path))
        assert code == 4
        assert "MISMATCH" in out

    def test_bad_ids_are_input_errors(self, capsys, tmp_path):
        record = {"quiver": [[6]], "valencies": [3],
                  "dimer_zeta": [1, 0, -6, 0, 9, 0, -4],
                  "quiver_zeta": [1, -6, 3, 12, -9, -6, 5],
                  "dimer_flag": "S", "quiver_flag": "S"}
        path = tmp_path / "cat.json"
        for ids in ([True, 1, 2, 3], [1, 2, 1], ["x"]):
            path.write_text(json.dumps([dict(record, id=i) for i in ids]))
            code, out, err = run(capsys, "catalog-verify", "--catalog",
                                 str(path))
            assert code == 2 and out == ""
            assert "id" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "catalog-verify", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True and len(doc["rows"]) == 41


class TestUsage:
    def test_no_verb(self, capsys):
        assert run(capsys)[0] == 1

    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_source(self, capsys):
        assert run(capsys, "zeta")[0] == 1

    def test_conflicting_sources(self, capsys):
        assert run(capsys, "zeta", "--ade", "A2", "--dimer", "3")[0] == 1

    def test_loops_without_ade_is_usage_error(self, capsys, tmp_path):
        # --loops used to be dropped silently: zeta --dimer 3,4 --loops
        # printed the loop-free polynomial and exited 0
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": 2, "edges": [[0, 1]]}))
        for verb in ("zeta", "rh", "primes", "spectrum", "export-plot"):
            for source in (("--dimer", "3,4"), ("--graph", str(path))):
                code, out, err = run(capsys, verb, *source, "--loops")
                assert code == 1 and out == ""
                assert "--ade" in err


class TestRepeatedCalls:
    def test_one_parser_serves_every_call(self, capsys, monkeypatch,
                                          tmp_path):
        """main may be called many times in one process: it builds its
        parser on the first call only, and each call returns what it
        returns with a freshly built parser."""
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": 2, "edges": [[0, 1], [1, 1]],
                                    "arrows": [[1, 0]]}))
        calls = [
            ["zeta", "--ade", "A2"],
            ["zeta", "--graph", str(path), "--format", "csv"],
            ["zeta", "--graph", str(tmp_path / "missing.json")],
            ["rh", "--dimer", "3,4", "--format", "json"],
            ["primes", "--ade", "A2", "-L", "31"],
            ["primes", "--ade", "D4", "--loops", "-L", "4"],
            ["primes", "--ade", "A9", "-L", "5", "--format", "csv"],
            ["zeta", "--graph", str(path), "--loops"],
            ["spectrum", "--dimer", "3,x"],
            ["spectrum", "--dimer", "4", "--format", "json"],
            ["export-plot", "--ade", "A3"],
            ["ade", "D5", "--loops"],
            ["dimer", "3,4"],
            ["dimer", "3,x"],
            ["catalog-verify", "--format", "json"],
            ["rh", "--ade", "D20", "--loops"],
            ["primes", "--help"],
            ["frobnicate"],
            [],
            ["zeta", "--ade", "A2"],
        ]
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "zetaforge":  # not a subcommand's parser
                built.append(self)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert len(built) == len(calls)
        built.clear()
        cli._build_parser.cache_clear()
        shared = [run(capsys, *argv) for argv in calls]
        assert len(built) == 1
        for argv, got, expect in zip(calls, shared, fresh):
            assert got == expect, argv
        codes = [code for code, _, _ in shared]
        assert codes == [0, 0, 2, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 3,
                         0, 1, 1, 0]
