"""The package's value classes: repr, equality, hashing, immutability,
pickling and construction, plus a cold start that loads neither
dataclasses nor the modules behind importlib.resources and typing."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from zetaforge.catalog import CatalogRecord, CatalogVerification, RowCheck
from zetaforge.census import Dart, PrimeCensus
from zetaforge.graphs import MatrixBundle, MixedGraph
from zetaforge.intpoly import IntPoly
from zetaforge.rootfind import RootSet
from zetaforge.zeta import ZetaReport

ROOTS = RootSet(roots=(((-0.5 + 0.8660254037844386j), 2), ((1 + 0j), 1)),
                residual_bound=2.220446049250313e-16)
ROOTS_REPR = ("RootSet(roots=(((-0.5+0.8660254037844386j), 2), ((1+0j), 1)), "
              "residual_bound=2.220446049250313e-16)")

# class, field values in order, the repr of the instance, whether it is
# hashable; every value class is frozen
CASES = [
    (MixedGraph, (3, ((0, 1), (2, 2)), ((0, 2),)),
     "MixedGraph(node_count=3, edges=((0, 1), (2, 2)), arrows=((0, 2),))",
     True),
    (MatrixBundle, (({1: 1}, {0: 1}), ({}, {})),
     "MatrixBundle(adjacency=({1: 1}, {0: 1}), arrows=({}, {}))", False),
    (RootSet, (ROOTS.roots, ROOTS.residual_bound), ROOTS_REPR, True),
    (ZetaReport, (IntPoly([1, 0, -1]), ROOTS, 1.0, 1, 2, "Strong", None,
                  True, None, False),
     "ZetaReport(zeta_inverse=IntPoly([1, 0, -1]), poles=" + ROOTS_REPR
     + ", r_g=1.0, p=1, q=2, classification='Strong', ramanujan=None, "
     "kotani_sunada_ok=True, xi_functional_ok=None, connected=False)",
     True),
    (CatalogRecord, (7, ((2, 1), (1, 0)), (3, 4), IntPoly([1, -2]),
                     IntPoly([1, 0, 3]), "S", "W"),
     "CatalogRecord(id=7, quiver=((2, 1), (1, 0)), valencies=(3, 4), "
     "dimer_zeta=IntPoly([1, -2]), quiver_zeta=IntPoly([1, 0, 3]), "
     "dimer_flag='S', quiver_flag='W')",
     True),
    (RowCheck, (5, ["bad"], ["note"]),
     "RowCheck(record_id=5, issues=['bad'], notes=['note'])", False),
    (CatalogVerification, ([RowCheck(1, [], []), RowCheck(2, ["x"], [])],),
     "CatalogVerification(rows=[RowCheck(record_id=1, issues=[], notes=[]), "
     "RowCheck(record_id=2, issues=['x'], notes=[])])", False),
    (Dart, (4, 0, 2, None), "Dart(id=4, tail=0, head=2, inverse=None)",
     True),
    (PrimeCensus, (4, [0, 0, 6, 0], [0, 0, 2, 0], 3),
     "PrimeCensus(horizon=4, closed_counts=[0, 0, 6, 0], "
     "prime_counts=[0, 0, 2, 0], delta=3)", False),
]
FIELDS = {
    "MixedGraph": ("node_count", "edges", "arrows"),
    "MatrixBundle": ("adjacency", "arrows"),
    "RootSet": ("roots", "residual_bound"),
    "ZetaReport": ("zeta_inverse", "poles", "r_g", "p", "q",
                   "classification", "ramanujan", "kotani_sunada_ok",
                   "xi_functional_ok", "connected"),
    "CatalogRecord": ("id", "quiver", "valencies", "dimer_zeta",
                      "quiver_zeta", "dimer_flag", "quiver_flag"),
    "RowCheck": ("record_id", "issues", "notes"),
    "CatalogVerification": ("rows",),
    "Dart": ("id", "tail", "head", "inverse"),
    "PrimeCensus": ("horizon", "closed_counts", "prime_counts", "delta"),
}
IDS = [case[0].__name__ for case in CASES]


def copy_of(values):
    """Equal values in new containers, so equality is not identity."""
    return pickle.loads(pickle.dumps(values))


@pytest.mark.parametrize("cls, values, text, hashable", CASES,
                         ids=IDS)
class TestValueClass:
    def test_repr(self, cls, values, text, hashable):
        assert repr(cls(*values)) == text

    def test_equality(self, cls, values, text, hashable):
        obj = cls(*values)
        assert obj == cls(*copy_of(values))
        assert not obj != cls(*copy_of(values))
        assert obj != values and not obj == values
        assert obj != tuple(values)
        first = values[0]
        changed = (first + 1 if isinstance(first, int) else None,) \
            + values[1:]
        assert obj != cls(*changed)

    def test_hash(self, cls, values, text, hashable):
        obj = cls(*values)
        if hashable:
            assert hash(obj) == hash(cls(*copy_of(values)))
            assert {obj: 1}[cls(*copy_of(values))] == 1
        else:
            with pytest.raises(TypeError):
                hash(obj)

    def test_frozen(self, cls, values, text, hashable):
        obj = cls(*values)
        name = FIELDS[cls.__name__][0]
        with pytest.raises(AttributeError):
            setattr(obj, name, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == values[0]

    def test_pickle_and_keywords(self, cls, values, text, hashable):
        obj = cls(*values)
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is cls and back == obj and repr(back) == text
        names = FIELDS[cls.__name__]
        assert [getattr(obj, n) for n in names] == list(values)
        assert cls(**dict(zip(names, values))) == obj


class TestDefaults:
    def test_mixed_graph(self):
        g = MixedGraph(2)
        assert g.edges == () and g.arrows == ()
        assert MixedGraph(node_count=2, arrows=((1, 0),)) == \
            MixedGraph(2, (), ((1, 0),))

    def test_mixed_graph_is_canonical(self):
        g = MixedGraph(3, [[2, 1], (0, 0), (1, 0)], [[2, 0], (0, 1)])
        assert g.edges == ((0, 0), (0, 1), (1, 2))
        assert g.arrows == ((0, 1), (2, 0))
        assert g == MixedGraph(3, ((1, 2), (0, 1), (0, 0)),
                               ((0, 1), (2, 0)))

    def test_row_check_ok_iff_no_issues(self):
        assert RowCheck(1, [], []).ok
        assert RowCheck(1, [], ["note"]).ok
        assert not RowCheck(1, ["bad"], []).ok
        assert not RowCheck(1, ["bad"], ["note"]).ok


def test_cold_start_loads_no_dataclasses():
    """Without site-packages, importing the package and running zeta and
    catalog-verify loads none of dataclasses, inspect, typing,
    importlib.resources, pathlib or tempfile."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "import zetaforge, zetaforge.cli\n"
        "codes = [zetaforge.cli.main(['zeta', '--ade', 'E6']),\n"
        "         zetaforge.cli.main(['catalog-verify'])]\n"
        "print(codes, sorted({'dataclasses', 'inspect', 'typing',\n"
        "                     'importlib.resources', 'pathlib',\n"
        "                     'tempfile'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[0, 0] []"
