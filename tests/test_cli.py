import json

from zetaforge.cli import main


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

    def test_normalizes_input(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": 2,
                                    "arrows": [[0, 1], [1, 0]]}))
        code, out, _ = run(capsys, "zeta", "--graph", str(path))
        assert code == 0
        assert out.strip() == "1"  # reciprocal pair folds into a tree edge


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


class TestPrimesVerb:
    def test_triangle_table(self, capsys):
        code, out, _ = run(capsys, "primes", "--ade", "A2", "-L", "6")
        assert code == 0
        lines = out.strip().splitlines()
        row3 = next(l for l in lines if l.split()[0] == "3")
        assert row3.split()[1] == "6" and row3.split()[2] == "2"

    def test_horizon_validation(self, capsys):
        code, _, _ = run(capsys, "primes", "--ade", "A2", "-L", "13")
        assert code == 1

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
