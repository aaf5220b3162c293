"""Each verb computes each quantity once, and its output is unchanged.

The call counts pin the single pass per verb: one reciprocal zeta
polynomial per graph and no spectrum a verb does not print.  The sha256
digests pin the default stdout of the report verbs byte for byte, as
produced before the single-pass refactor.
"""

import hashlib
import json
from collections import Counter

import pytest

from zetaforge import catalog, cli, zeta
from zetaforge.catalog import ade_graph, load_catalog, verify_catalog

# F2 Hirzebruch quiver: a chiral quiver with arrows only
HIRZ2 = {"nodes": 4, "arrows": [[0, 1], [0, 1], [0, 3], [0, 3], [1, 2], [1, 2],
                                [2, 0], [2, 0], [2, 0], [2, 0], [3, 2], [3, 2]]}

SOURCES = {"A5": ["--ade", "A5"], "A6 --loops": ["--ade", "A6", "--loops"],
           "D5 --loops": ["--ade", "D5", "--loops"],
           "dimer 3,4": ["--dimer", "3,4"], "hirz2": ["--graph", None]}

DIGESTS = {
    ("rh", "A5"): "05ec718343324985719a2bd5970355fae776205a8b3d37fad792d4ed45c411f6",
    ("rh", "A6 --loops"): "63a78c4a549763e302859928af13479b6df0b7551cbcf18afa1d26b1a7da8cf7",
    ("rh", "D5 --loops"): "5f42d5b48d7ce1769a9be0585ce004488ab4e96a87dff7c221fcff223751de67",
    ("rh", "dimer 3,4"): "8692d6b238bc63e6b2f208142d2f4c296dfab7826475d7f5928b53ab43511de2",
    ("rh", "hirz2"): "a99418145a367cf8092cfb18299f0119e182951e2e3a39a01c2251a3692ea30c",
    ("rh --format json", "A5"): "0aa278d4653f82c02429404f499ab682b9c75b5221466b0b93c90048af3ce6b7",
    ("rh --format json", "A6 --loops"): "847f23beca2c4bb8f0145469507a3214765b1119b9fceea042b3cf2b4edd84ce",
    ("rh --format json", "D5 --loops"): "0e43ebf2bca4fc560f32c8f5400b8f62229532cd336895721722b17f8103d8d6",
    ("rh --format json", "dimer 3,4"): "ab511b6b33d1624b91686085b7b1995f05c2ff52f90ab5e4da65335cb498a88e",
    ("rh --format json", "hirz2"): "4c103d0dba0ee00d9005693e96707dea4720b4abe5b09cf2202cef3b61f6dece",
    ("export-plot", "A5"): "3e7a365bce058c7c62f9a3c5663215620df61c33ee65b27dca6cb3cdbc43f4da",
    ("export-plot", "A6 --loops"): "176ba24a2beb73dc3e059cbde46df4a4cec9e551637dcca63e9fcc6db2418e8d",
    ("export-plot", "D5 --loops"): "e90320785f21a672347be572162627989ee9daafac8fe4876549d5bb856e17dd",
    ("export-plot", "dimer 3,4"): "8f988198d8476069b80380a94c84d7e825dd349239340bc45b6273ffe8cc5f76",
    ("export-plot", "hirz2"): "a14303141c184e5ab41f61aa251d3f152f17b4bffc337e9503905d01c8138efd",
    ("primes -L 6", "A5"): "53007e16b69d132499672c7cfdad667ca1d796a6eb9238bb62a55b8bf8099cce",
    ("primes -L 6", "A6 --loops"): "60fddfde1fae6a384081d2f43ab612d5c56c5228da5a099fea73b2b19abd06d6",
    ("primes -L 6", "D5 --loops"): "fb904e8da2eb09c71da80d55527ec5d73d586c97a2f07c11691e909a34a91474",
    ("primes -L 6", "dimer 3,4"): "d41bcc08637ef33fb67753fff3a21fac47e4ec5f7479c5a51c7faa000938f5ee",
    ("primes -L 6", "hirz2"): "225777be521ad7979a2519f53052840f9d3c3f473785a6c0953cb7fb44cc7af2",
    ("spectrum", "A5"): "e601d9ce50c3056ab4274fa30ad3ff075657c372795a31d457d9b53eb782292d",
    ("spectrum", "A6 --loops"): "8e435415e073e3d76aa4e1030f56fbcd9cd96ba349cba1ff0da34dd8bccbb63c",
    ("spectrum", "D5 --loops"): "c61a56e424f1b47483201b1f214a009bbea0a22507751f27fdeebf914517fb03",
    ("spectrum", "dimer 3,4"): "7baaa2753caa55330a7cc6106cae96f6c735f149d285f39f7b722dcb963a520a",
    ("spectrum", "hirz2"): "85df231dcaa4424a117da7dc637591305afc7e19b429286d2c7a430ee4e2ce34",
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
    report = zeta.analyze(ade_graph("A", 5))
    assert report.ramanujan is True and report.xi_functional_ok is True
    assert calls == {"zeta_inverse": 1, "adjacency_spectrum": 1}


def test_verify_catalog_one_zeta_per_graph(calls):
    assert verify_catalog(load_catalog()).ok
    assert calls["zeta_inverse"] == 82


def test_export_plot(calls, capsys):
    assert cli.main(["export-plot", "--ade", "A5"]) == 0
    assert calls == {"zeta_inverse": 1, "adjacency_spectrum": 1}


def test_primes_needs_no_spectrum(calls, capsys):
    assert cli.main(["primes", "--ade", "A5", "-L", "4"]) == 0
    assert calls["adjacency_spectrum"] == 0


def test_rh_csv_rejected_before_analysis(calls, capsys):
    assert cli.main(["rh", "--ade", "A5", "--format", "csv"]) == 1
    assert "rh does not support csv" in capsys.readouterr().err
    assert calls == {}
