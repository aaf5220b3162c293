"""Graph generators and the bundled brane-tiling reference catalog.

Generators cover the affine A/D/E diagrams (optionally decorated with two
loops per node) and bipartite dimer graphs given by their valency lists.
The bundled catalog carries 41 consistent tilings with reference zeta
polynomials and Riemann-hypothesis flags for both the tiling itself and
its quiver; verify_catalog recomputes everything from scratch and reports
row-by-row agreement.  Reference entries known to disagree with
recomputation are tracked as data errata rather than failures.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from importlib import resources

from .graphs import MixedGraph, normalize
from .intpoly import IntPoly, exact_div
from .rootfind import DEFAULT_MERGE, DEFAULT_TOL
from .zeta import _FLAGS, STRONG, analyze, classify_moduli

ENV_CATALOG = "ZETAFORGE_CATALOG"


class CatalogError(ValueError):
    """A catalog data file is missing, truncated or malformed."""


# ---------------------------------------------------------------------------
# generators


def ade_graph(family: str, index: int, with_loops: bool = False) -> MixedGraph:
    """Affine A/D/E diagram as an undirected graph.

    A index n is the (n+1)-cycle, degenerating to a single loop node at
    n = 0 and a doubled edge at n = 1.  D index m (m >= 4) is the affine
    diagram with m + 1 nodes: a chain with a two-leaf fork at each end.
    E index 6, 7 or 8 is the affine diagram with index + 1 nodes.
    with_loops adds two loops to every node.
    """
    family = family.upper()
    edges: list[tuple[int, int]] = []
    if family == "A":
        if index < 0:
            raise ValueError("A-family index must be nonnegative")
        n = index + 1
        if index == 0:
            edges.append((0, 0))
        elif index == 1:
            edges.extend([(0, 1), (0, 1)])
        else:
            edges.extend((i, (i + 1) % n) for i in range(n))
    elif family == "D":
        if index < 4:
            raise ValueError("D-family index must be at least 4")
        n = index + 1
        chain = list(range(2, index - 1))  # nodes 2 .. m-2
        edges.extend([(0, 2), (1, 2)])
        edges.extend((chain[k], chain[k + 1]) for k in range(len(chain) - 1))
        edges.extend([(index - 2, index - 1), (index - 2, index)])
    elif family == "E":
        arms = {6: (2, 2, 2), 7: (3, 3, 1), 8: (5, 2, 1)}.get(index)
        if arms is None:
            raise ValueError("E-family index must be 6, 7 or 8")
        n = index + 1
        nxt = 1
        for length in arms:
            prev = 0
            for _ in range(length):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        assert nxt == n
    else:
        raise ValueError(f"unknown family {family!r}; expected A, D or E")
    if with_loops:
        edges.extend((v, v) for v in range(n) for _ in range(2))
    return MixedGraph(n, tuple(edges))


def parse_ade_spec(spec: str) -> tuple[str, int]:
    """Parse strings like 'A2', 'd4' or 'E8' into (family, index)."""
    spec = spec.strip()
    if len(spec) < 2 or spec[0].upper() not in "ADE":
        raise ValueError(f"bad diagram spec {spec!r}; expected e.g. A2, D4, E6")
    try:
        index = int(spec[1:])
    except ValueError:
        raise ValueError(f"bad diagram index in {spec!r}") from None
    return spec[0].upper(), index


def dimer_graph(valencies: list[int]) -> MixedGraph:
    """Bipartite graph of a tiling: pair i gets valencies[i] parallel
    edges between its black node 2i and white node 2i+1."""
    _check_valencies(valencies)
    edges = []
    for i, r in enumerate(valencies):
        edges.extend([(2 * i, 2 * i + 1)] * r)
    return MixedGraph(2 * len(valencies), tuple(edges))


def dimer_zeta_closed(valencies: list[int]) -> IntPoly:
    """Closed-form reciprocal zeta of a dimer graph:

        (1 - z^2)^(sum r - 2n) * prod_i [(1 + (r_i - 1) z^2)^2 - (r_i z)^2]

    A negative prefactor power becomes an exact division (the product
    always carries enough 1 - z^2 factors)."""
    _check_valencies(valencies)
    prod = IntPoly((1,))
    for r in valencies:
        prod = prod * (IntPoly((1, 0, r - 1)) ** 2 - IntPoly((0, r)) ** 2)
    shift = sum(valencies) - 2 * len(valencies)
    one_minus_z2 = IntPoly((1, 0, -1))
    if shift >= 0:
        return prod * one_minus_z2 ** shift
    return exact_div(prod, one_minus_z2 ** (-shift))


def dimer_rh(valencies: list[int]) -> bool:
    """Valency test equivalent to the pole-free annulus being empty:
    every r below the maximum must satisfy r^2 - 2r + 2 <= r_max.
    The boundary case (equality) puts the pole exactly on the annulus
    edge, which does not violate the open annulus, hence non-strict."""
    _check_valencies(valencies)
    r_max = max(valencies)
    return all(r * r - 2 * r + 2 <= r_max for r in valencies if r < r_max)


def _check_valencies(valencies):
    if not valencies or any(not isinstance(r, int) or r < 1
                            for r in valencies):
        raise ValueError("valencies must be a nonempty list of integers >= 1")


def quiver_to_graph(matrix) -> MixedGraph:
    """Decode a quiver adjacency matrix: diagonal entries are twice the
    loop count, matched off-diagonal pairs become edges, surplus becomes
    arrows."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("quiver matrix is not square")
    edges = []
    arrows = []
    for i in range(n):
        if matrix[i][i] % 2 or matrix[i][i] < 0:
            raise ValueError(
                f"diagonal entry {matrix[i][i]} at node {i} is not twice "
                "a loop count")
        edges.extend([(i, i)] * (matrix[i][i] // 2))
        for j in range(i + 1, n):
            fwd, bwd = matrix[i][j], matrix[j][i]
            if fwd < 0 or bwd < 0:
                raise ValueError("negative multiplicity in quiver matrix")
            paired = min(fwd, bwd)
            edges.extend([(i, j)] * paired)
            arrows.extend([(i, j)] * (fwd - paired))
            arrows.extend([(j, i)] * (bwd - paired))
    return MixedGraph(n, tuple(edges), tuple(arrows))


# ---------------------------------------------------------------------------
# bundled reference data


@dataclass(frozen=True)
class CatalogRecord:
    id: int
    quiver: tuple[tuple[int, ...], ...]
    valencies: tuple[int, ...]
    dimer_zeta: IntPoly
    quiver_zeta: IntPoly
    dimer_flag: str
    quiver_flag: str


# Reference entries whose printed flag disagrees with recomputation.
# Keyed by record id; values explain the discrepancy.
DIMER_FLAG_ERRATA: dict[int, str] = {
    31: "reference flag S, recomputed N: the identical tiling polynomial "
        "appears in records 25-28 and 32-33 flagged N (pole at 1/2 falls "
        "inside the open annulus (1/3, 1/sqrt(3)))",
}

# The weak-annulus bound 1/sqrt(q) needs a degree convention on
# partially directed graphs.  This package defines q from the total
# degree (undirected + in- + out-arrows); the reference quiver flags
# follow the adjacency row-sum degree (undirected + out-arrows only),
# which is smaller on chiral quivers and flips some W verdicts to N.
# verify_catalog recomputes each deviating row under the row-sum
# convention and only downgrades the mismatch to a note when that
# reproduces the reference flag.


def load_catalog(path: str | None = None) -> list[CatalogRecord]:
    """Load catalog records from path, the ZETAFORGE_CATALOG override, or
    the bundled data file.  Raises CatalogError naming the failing record
    on any structural problem."""
    if path is None:
        path = os.environ.get(ENV_CATALOG)
    try:
        if path is None:
            raw = (resources.files("zetaforge") / "data" / "tilings41.json"
                   ).read_text()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except OSError as err:
        raise CatalogError(f"cannot read catalog: {err}") from err
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise CatalogError(f"catalog is not valid JSON: {err}") from err
    if not isinstance(doc, list):
        raise CatalogError("catalog must be a JSON list of records")
    records = []
    for pos, entry in enumerate(doc):
        records.append(_parse_record(pos, entry))
    return records


def _parse_record(pos: int, entry) -> CatalogRecord:
    where = f"record {pos + 1}"
    if not isinstance(entry, dict):
        raise CatalogError(f"{where}: not an object")
    try:
        rid = entry["id"]
        quiver = entry["quiver"]
        valencies = entry["valencies"]
        dimer_zeta = entry["dimer_zeta"]
        quiver_zeta = entry["quiver_zeta"]
        dimer_flag = entry["dimer_flag"]
        quiver_flag = entry["quiver_flag"]
    except KeyError as err:
        raise CatalogError(f"{where}: missing field {err}") from None
    where = f"record {pos + 1} (id {rid})"
    if (not isinstance(quiver, list) or not quiver
            or any(len(row) != len(quiver) for row in quiver)
            or any(not isinstance(x, int) for row in quiver for x in row)):
        raise CatalogError(f"{where}: quiver must be a square integer matrix")
    if (not isinstance(valencies, list) or not valencies
            or any(not isinstance(r, int) or r < 1 for r in valencies)):
        raise CatalogError(f"{where}: bad valency list")
    for name, coeffs in (("dimer_zeta", dimer_zeta),
                         ("quiver_zeta", quiver_zeta)):
        if (not isinstance(coeffs, list) or not coeffs
                or any(not isinstance(c, int) for c in coeffs)):
            raise CatalogError(f"{where}: {name} must be an integer "
                               "coefficient list")
        if coeffs[0] != 1:
            raise CatalogError(f"{where}: {name} constant term is "
                               f"{coeffs[0]}, expected 1")
    for name, flag in (("dimer_flag", dimer_flag),
                       ("quiver_flag", quiver_flag)):
        if flag not in ("S", "W", "N"):
            raise CatalogError(f"{where}: {name} must be S, W or N")
    return CatalogRecord(rid, tuple(tuple(row) for row in quiver),
                         tuple(valencies), IntPoly(dimer_zeta),
                         IntPoly(quiver_zeta), dimer_flag, quiver_flag)


# ---------------------------------------------------------------------------
# verification


@dataclass
class RowCheck:
    record_id: int
    issues: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


@dataclass
class CatalogVerification:
    rows: list[RowCheck]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def summary_lines(self) -> list[str]:
        lines = []
        for row in self.rows:
            status = "ok" if row.ok else "MISMATCH"
            tail = ""
            if row.notes:
                tail = " [" + "; ".join(row.notes) + "]"
            if row.issues:
                tail += " !! " + "; ".join(row.issues)
            lines.append(f"record {row.record_id}: {status}{tail}")
        good = sum(1 for r in self.rows if r.ok)
        lines.append(f"{good}/{len(self.rows)} records verified"
                     + ("" if self.ok else " (hard mismatches present)"))
        return lines


def verify_catalog(records: list[CatalogRecord], tol: float = DEFAULT_TOL,
                   merge_tol: float = DEFAULT_MERGE) -> CatalogVerification:
    """Recompute every zeta polynomial and flag and compare with the
    reference values.  Known data errata and documented convention notes
    are reported as notes, not failures."""
    rows = []
    for rec in records:
        row = RowCheck(rec.id)
        valencies = list(rec.valencies)
        dimer_report = analyze(dimer_graph(valencies), tol, merge_tol)
        if dimer_report.zeta_inverse != rec.dimer_zeta:
            row.issues.append("tiling zeta (determinant route) differs from "
                              "reference")
        if dimer_zeta_closed(valencies) != rec.dimer_zeta:
            row.issues.append("tiling zeta (closed form) differs from "
                              "reference")
        dimer_flag = _FLAGS[dimer_report.classification]
        if dimer_rh(valencies) != (dimer_report.classification == STRONG):
            row.issues.append("valency inequality disagrees with the "
                              "annulus test")
        if dimer_flag != rec.dimer_flag:
            known = DIMER_FLAG_ERRATA.get(rec.id)
            if known:
                row.notes.append(f"tiling flag: {known}")
            else:
                row.issues.append(
                    f"tiling flag {dimer_flag} differs from reference "
                    f"{rec.dimer_flag}")
        q_report = analyze(normalize(quiver_to_graph(rec.quiver)), tol,
                           merge_tol)
        if q_report.zeta_inverse != rec.quiver_zeta:
            row.issues.append("quiver zeta differs from reference")
        q_flag = _FLAGS[q_report.classification]
        if q_flag != rec.quiver_flag:
            strong_sides = (q_flag == "S") == (rec.quiver_flag == "S")
            alt_flag = None
            if strong_sides:
                q_rowsum = max(sum(r) for r in rec.quiver) - 1
                alt_flag = _FLAGS[classify_moduli(
                    q_report.poles.moduli(), q_report.r_g, q_rowsum)]
            if alt_flag == rec.quiver_flag:
                row.notes.append(
                    f"quiver flag {q_flag} under the total-degree "
                    f"convention; the row-sum degree convention "
                    f"(q={q_rowsum}) reproduces the reference "
                    f"{rec.quiver_flag}")
            else:
                row.issues.append(
                    f"quiver flag {q_flag} differs from reference "
                    f"{rec.quiver_flag}")
        rows.append(row)
    return CatalogVerification(rows)
