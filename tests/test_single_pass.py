"""Each verb computes each quantity once, and its output is unchanged.

The call counts pin the single pass per verb: one reciprocal zeta
polynomial per graph and no spectrum a verb does not print.  The sha256
digests pin the default stdout of the report verbs byte for byte.  The
root-printing ones were re-baselined once, when every root came to be
refined on its factor and rounded to the nearest float: each changed
output is the one that 50-digit reference roots, rounded, give
(CHANGES.md lists every line).  The rh --format json ones changed once
more, only in residual_bound, when it became the a-priori rounding
bound 2^-52 * max|z|.  The catalog digests never changed.
"""

import hashlib
import json
from collections import Counter

import pytest

from zetaforge import catalog, cli, zeta
from zetaforge.catalog import ade_graph, load_catalog, verify_catalog
from zetaforge.intpoly import IntPoly

# F2 Hirzebruch quiver: a chiral quiver with arrows only
HIRZ2 = {"nodes": 4, "arrows": [[0, 1], [0, 1], [0, 3], [0, 3], [1, 2], [1, 2],
                                [2, 0], [2, 0], [2, 0], [2, 0], [3, 2], [3, 2]]}

SOURCES = {"A5": ["--ade", "A5"], "A6 --loops": ["--ade", "A6", "--loops"],
           "D5 --loops": ["--ade", "D5", "--loops"],
           "dimer 3,4": ["--dimer", "3,4"], "hirz2": ["--graph", None]}

DIGESTS = {
    ("rh", "A5"): "e1939283d6cce4b443f08e1f64634312bd953a3dadbd9a3db8e124d60c9bbfdb",
    ("rh", "A6 --loops"): "2c06f3f01305e6177398817b01d18241e78acda42126ffdf07ab91581a819ce0",
    ("rh", "D5 --loops"): "95f29bc4b03a419810df1c61b5d2f5efa7d3ea0944dce6ee82f56579cf0343b0",
    ("rh", "dimer 3,4"): "d90f283e59e4362ec3fc6a5dadef27803b21ebf954ba1a770b4be1fb698c97ad",
    ("rh", "hirz2"): "a7bc4fc2662a33a687cc65773ff78c6267e6923aca4f040baf6bbbffe6990605",
    ("rh --format json", "A5"): "e8f03c274553af4f7e9927dcafea26968015ef0cac5e607b4589d4e9ce54c8e6",
    ("rh --format json", "A6 --loops"): "b1fea32dd4599b8189c63f1d79d9e6d2d7f5cb6b3cf87a2b3a23e975e7ae00f5",
    ("rh --format json", "D5 --loops"): "3f98b7a5ad2afd1daa254ee04693f14ceb7ec86c1720b61569a333deb9d99bae",
    ("rh --format json", "dimer 3,4"): "037d7f308fbdc4bcd1aee6b007b86212893591ad682b583c46d1af7f81fb58aa",
    ("rh --format json", "hirz2"): "3f82c3f60d32138fa128ac51709ff6399663996605d13e3ad34bf3a30f0e2474",
    ("export-plot", "A5"): "04d61b2445d41c3a6ff7f3016d168e4eff7f7cfd1a4c2fbf02d74d2490590138",
    ("export-plot", "A6 --loops"): "1b4b578c6321d099b6943d6e85ff578915024ea923af72b5d765c478e8d67401",
    ("export-plot", "D5 --loops"): "a73be1daf7b786b849fbb8357506e27e97788db66ae10a9ecae2bb0de4547fb1",
    ("export-plot", "dimer 3,4"): "59c313102c7e79e4a8e710421865e6fcf7f3e282a825f07ad8357236bb6693cd",
    ("export-plot", "hirz2"): "d511baa0bf7a841f96de07598b4db5bd7c8df164014eb61ccf48e41cebb95832",
    ("primes -L 6", "A5"): "53007e16b69d132499672c7cfdad667ca1d796a6eb9238bb62a55b8bf8099cce",
    ("primes -L 6", "A6 --loops"): "60fddfde1fae6a384081d2f43ab612d5c56c5228da5a099fea73b2b19abd06d6",
    ("primes -L 6", "D5 --loops"): "a536bc32124bf9c8d6aaf47151e20404e236344a1a11bb99b85196a5eb1453e6",
    ("primes -L 6", "dimer 3,4"): "d41bcc08637ef33fb67753fff3a21fac47e4ec5f7479c5a51c7faa000938f5ee",
    ("primes -L 6", "hirz2"): "225777be521ad7979a2519f53052840f9d3c3f473785a6c0953cb7fb44cc7af2",
    ("spectrum", "A5"): "4cff68119c385ad638c4b7497a1d821134e9f41287289187185ced5c1afb687c",
    ("spectrum", "A6 --loops"): "6ada036fd4dff78bf19adfe78acd333f0fa22ebb022550a896aa232150451893",
    ("spectrum", "D5 --loops"): "36edcc511895328ff636110c26aea8800c6efb8e770f1cdee4688fc391d47881",
    ("spectrum", "dimer 3,4"): "5e247e8d295e9cffdb41005c2dd7af97339fa9b8f6e000e51a72c27772a5b2be",
    ("spectrum", "hirz2"): "1de06c0656d5179db4364796073e56253040ff128cfaa20b11e2d2d91ca24891",
}

CATALOG_DIGESTS = {
    "text": "76247ee622cf70bdf335a0bd883eb0e15a5d07b31dcb9f698c1b0e09eb1ec37d",
    "json": "84cf0f6147b076b6c7558baa58e9a8d9f125693f0212565d4407543a5bc170b2",
}


def stdout_digest(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("verb,source", sorted(DIGESTS))
def test_stdout_unchanged(verb, source, capsys, tmp_path):
    argv = list(SOURCES[source])
    if source == "hirz2":
        path = tmp_path / "hirz2.json"
        path.write_text(json.dumps(HIRZ2))
        argv[1] = str(path)
    assert stdout_digest(capsys, verb.split() + argv) == DIGESTS[verb, source]


@pytest.mark.parametrize("fmt", sorted(CATALOG_DIGESTS))
def test_catalog_verify_unchanged(fmt, capsys):
    digest = stdout_digest(capsys, ["catalog-verify", "--format", fmt])
    assert digest == CATALOG_DIGESTS[fmt]


@pytest.fixture
def calls(monkeypatch):
    """Counts zeta_inverse and adjacency_spectrum calls through every
    module-level name that refers to them."""
    counts = Counter()
    for name in ("zeta_inverse", "adjacency_spectrum"):
        original = getattr(zeta, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (zeta, catalog, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_analyze_regular_graph(calls):
    """The Ramanujan verdict comes from the characteristic polynomial,
    not from its roots."""
    report = zeta.analyze(ade_graph("A", 5))
    assert report.ramanujan is True and report.xi_functional_ok is True
    assert calls == {"zeta_inverse": 1}


def test_verify_catalog_one_zeta_per_graph(calls):
    """One zeta polynomial per quiver, and one per distinct dimer: the 41
    records hold 15 valency tuples."""
    records = load_catalog()
    assert verify_catalog(records).ok
    assert len({rec.valencies for rec in records}) == 15
    assert calls["zeta_inverse"] == 41 + 15
    assert calls["adjacency_spectrum"] == 0


def test_export_plot(calls, capsys):
    assert cli.main(["export-plot", "--ade", "A5"]) == 0
    assert calls == {"zeta_inverse": 1, "adjacency_spectrum": 1}


def test_primes_needs_no_spectrum(calls, capsys):
    assert cli.main(["primes", "--ade", "A5", "-L", "4"]) == 0
    assert calls["adjacency_spectrum"] == 0


@pytest.mark.parametrize("spec", ["A2", "A9"])
def test_primes_one_zeta_inverse(spec, calls, capsys):
    """One zeta polynomial serves the count check and, when there is a
    prime (the triangle has one at length 3, the 10-cycle none within
    6), R_G."""
    assert cli.main(["primes", "--ade", spec, "-L", "6"]) == 0
    assert calls == {"zeta_inverse": 1}


def test_rh_csv_rejected_before_analysis(calls, capsys):
    assert cli.main(["rh", "--ade", "A5", "--format", "csv"]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert calls == {}


def test_zeta_inverse_builds_entries_only_for_nonzeros(monkeypatch):
    """The 400-cycle has 3n nonzero entries: at most 4n IntPoly objects,
    not one per entry of the n x n matrix."""
    built = Counter()
    init, raw = IntPoly.__init__, IntPoly._raw.__func__

    def counted_init(self, *args, **kwargs):
        built["IntPoly"] += 1
        init(self, *args, **kwargs)

    def counted_raw(cls, coeffs):
        built["IntPoly"] += 1
        return raw(cls, coeffs)

    g = ade_graph("A", 399)
    monkeypatch.setattr(IntPoly, "__init__", counted_init)
    monkeypatch.setattr(IntPoly, "_raw", classmethod(counted_raw))
    result = zeta.zeta_inverse(g)
    monkeypatch.undo()
    assert result.coeffs == (1,) + (0,) * 399 + (-2,) + (0,) * 399 + (1,)
    assert 0 < built["IntPoly"] <= 4 * g.node_count
