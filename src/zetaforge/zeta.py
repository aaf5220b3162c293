"""Zeta assembly, pole analysis and Riemann-hypothesis classification.

The reciprocal zeta function of a partially directed multigraph is the
exact integer polynomial

    (1 - z^2)^(n - m) * det(I - A z + Q z^2 + P z^3)

with A the full adjacency matrix, P the arrows-only matrix, Q the
diagonal of undirected degrees minus one, n the node count and m the
edge count.  When n > m the prefactor becomes an exact division, whose
failure would contradict rationality and raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import MixedGraph, degree_profile, is_connected, matrices
from .intpoly import IntPoly, exact_div
from .polydet import char_poly, det_poly
from .rootfind import DEFAULT_MERGE, DEFAULT_TOL, RootSet, find_roots

STRONG = "Strong"
WEAK = "Weak"
VIOLATED = "Violated"
TRIVIAL = "Trivial"

# one-letter flags of the reference catalog and the CLI report
_FLAGS = {STRONG: "S", WEAK: "W", VIOLATED: "N", TRIVIAL: "T"}

_ANNULUS_EPS = 1e-9   # open-annulus slack: boundary poles do not violate
_MODULUS_TOL = 1e-8

_ONE_MINUS_Z2 = IntPoly((1, 0, -1))


def zeta_inverse(g: MixedGraph) -> IntPoly:
    """Reciprocal zeta polynomial of a normalized graph; constant term 1."""
    b = matrices(g)
    n = g.node_count
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            c0 = 1 if i == j else 0
            c2 = b.degree_diag[i] if i == j else 0
            row.append(IntPoly((c0, -b.adjacency[i][j], c2, b.arrows[i][j])))
        rows.append(row)
    det = det_poly(rows)
    e = b.exponent
    if e <= 0:
        result = det * _ONE_MINUS_Z2 ** (-e)
    else:
        result = exact_div(det, _ONE_MINUS_Z2 ** e)
    assert result.constant_term == 1
    return result


def directed_zeta_inverse(g: MixedGraph) -> IntPoly:
    """det(I - z A) for an arrows-only graph; equals zeta_inverse(g)."""
    if g.edges:
        raise ValueError("graph has undirected edges; only fully directed "
                         "graphs admit the det(I - zA) form")
    b = matrices(g)
    n = g.node_count
    rows = [[IntPoly(((1 if i == j else 0), -b.adjacency[i][j]))
             for j in range(n)] for i in range(n)]
    return det_poly(rows)


def adjacency_spectrum(g: MixedGraph, tol: float = DEFAULT_TOL,
                       merge_tol: float = DEFAULT_MERGE) -> RootSet:
    """Eigenvalues of the full adjacency matrix (complex for chiral graphs)."""
    return find_roots(char_poly(matrices(g).adjacency), tol, merge_tol)


def is_ramanujan(g: MixedGraph, tol: float = DEFAULT_TOL,
                 merge_tol: float = DEFAULT_MERGE) -> bool:
    """Whether a regular undirected graph has all nontrivial adjacency
    eigenvalues within 2*sqrt(degree - 1) in absolute value."""
    if not g.is_undirected:
        raise ValueError("Ramanujan test requires an undirected graph")
    profile = degree_profile(g)
    if not profile.is_regular:
        raise ValueError("Ramanujan test requires a regular graph")
    k = profile.max_degree
    spec = adjacency_spectrum(g, tol, merge_tol)
    bound = 2.0 * math.sqrt(k - 1) + _MODULUS_TOL
    nontrivial = [abs(lam) for lam, _ in spec
                  if abs(abs(lam) - k) > _MODULUS_TOL]
    return max(nontrivial, default=0.0) <= bound


def _q_reversal(p: IntPoly, q: int) -> IntPoly:
    """(qz)^deg(p) * p(1/(qz)) as an integer polynomial."""
    d = p.degree
    return IntPoly(p.coeffs[d - j] * q ** j for j in range(d + 1))


def xi_functional_check(g: MixedGraph) -> bool:
    """Exact check of the xi functional equation xi(z) = xi(1/(qz)) for a
    (q+1)-regular undirected graph, q >= 1, where
    xi(z) = (1+z)^(m-n) (1-z)^m (1-qz)^n / zeta_inverse(z)."""
    if not g.is_undirected:
        raise ValueError("xi functional equation requires an undirected graph")
    profile = degree_profile(g)
    if not profile.is_regular:
        raise ValueError("xi functional equation requires a regular graph")
    q = profile.max_degree - 1
    if q < 1:
        raise ValueError("degree-1 regular graph: no functional equation")
    return _xi_holds(zeta_inverse(g), q, g.node_count, g.edge_count)


def _xi_holds(denom: IntPoly, q: int, n: int, m: int) -> bool:
    """xi functional equation for the reciprocal zeta polynomial denom of
    a (q+1)-regular undirected graph with n nodes and m edges."""
    numer = (IntPoly((1, 1)) ** (m - n) * IntPoly((1, -1)) ** m
             * IntPoly((1, -q)) ** n)
    lhs = numer * _q_reversal(denom, q) * IntPoly.term(q, 1) ** numer.degree
    rhs = _q_reversal(numer, q) * denom * IntPoly.term(q, 1) ** denom.degree
    return lhs == rhs


@dataclass(frozen=True)
class ZetaReport:
    """Pole analysis and classification verdicts for one graph.

    classification is Strong/Weak/Violated per the open pole-free annuli
    (R, sqrt(R)) and (R, 1/sqrt(q)), with R the smallest pole modulus,
    or Trivial when the reciprocal zeta is constant (forests).  q and p
    are max/min total degree minus one; ramanujan and xi_functional_ok
    are None when the graph is not regular undirected.  kotani_sunada_ok
    records the degree bound 1/q <= R <= 1/p, tested only on undirected
    graphs (where the theorem lives) and vacuously true otherwise.
    """

    zeta_inverse: IntPoly
    poles: RootSet
    r_g: float
    p: int
    q: int
    classification: str
    ramanujan: bool | None
    kotani_sunada_ok: bool
    xi_functional_ok: bool | None
    connected: bool

    def to_json_dict(self) -> dict:
        return {
            "zeta_inverse": [str(c) for c in self.zeta_inverse.coeffs],
            "poles": [{"re": r.real, "im": r.imag, "multiplicity": m}
                      for r, m in self.poles],
            "residual_bound": self.poles.residual_bound,
            "r_g": self.r_g,
            "p": self.p,
            "q": self.q,
            "classification": self.classification,
            "ramanujan": self.ramanujan,
            "kotani_sunada_ok": self.kotani_sunada_ok,
            "xi_functional_ok": self.xi_functional_ok,
            "connected": self.connected,
        }


def classify_moduli(moduli: list[float], r_g: float, q: int) -> str:
    """Strong/Weak/Violated from pole moduli (open annuli, 1e-9 slack)."""
    if not moduli:
        return TRIVIAL
    lo = r_g + _ANNULUS_EPS
    strong_hi = math.sqrt(r_g) - _ANNULUS_EPS
    if not any(lo < x < strong_hi for x in moduli):
        return STRONG
    if q >= 1:
        weak_hi = 1.0 / math.sqrt(q) - _ANNULUS_EPS
        if not any(lo < x < weak_hi for x in moduli):
            return WEAK
    return VIOLATED


def analyze(g: MixedGraph, tol: float = DEFAULT_TOL,
            merge_tol: float = DEFAULT_MERGE) -> ZetaReport:
    """Full zeta report: polynomial, poles, R, classification, verdicts."""
    zi = zeta_inverse(g)
    poles = find_roots(zi, tol, merge_tol)
    moduli = poles.moduli()
    r_g = poles.min_modulus()
    profile = degree_profile(g)
    q = profile.max_degree - 1
    p = profile.min_degree - 1
    classification = classify_moduli(moduli, r_g, q)

    if moduli and g.is_undirected:
        # degree-bound theorem for undirected graphs: 1/q <= R <= 1/p;
        # arrows break both bounds (a directed triple-cycle has R = 1/3
        # with total degree 6), so the test is skipped for them
        ks_ok = ((q < 1 or 1.0 / q - _MODULUS_TOL <= r_g)
                 and (p < 1 or r_g <= 1.0 / p + _MODULUS_TOL))
    else:
        ks_ok = True

    ramanujan = None
    xi_ok = None
    if g.is_undirected and profile.is_regular:
        ramanujan = is_ramanujan(g, tol, merge_tol)
        if q >= 1:
            xi_ok = _xi_holds(zi, q, g.node_count, g.edge_count)
    return ZetaReport(zi, poles, r_g, p, q, classification, ramanujan,
                      ks_ok, xi_ok, is_connected(g))


def plot_points(g: MixedGraph, tol: float = DEFAULT_TOL,
                merge_tol: float = DEFAULT_MERGE) -> list[tuple[float, float, str]]:
    """(re, im, kind) rows for poles and adjacency eigenvalues, suitable
    for scatter plots; one row per multiplicity.

    Computes only the poles and the spectrum, one pass each.  A caller
    that already holds a ZetaReport has the polynomial in
    ZetaReport.zeta_inverse and its poles in ZetaReport.poles, so it
    needs no second zeta_inverse."""
    rows = []
    for root, mult in find_roots(zeta_inverse(g), tol, merge_tol):
        rows.extend([(root.real, root.imag, "pole")] * mult)
    for lam, mult in adjacency_spectrum(g, tol, merge_tol):
        rows.extend([(lam.real, lam.imag, "eigenvalue")] * mult)
    return rows


__all__ = ["STRONG", "WEAK", "VIOLATED", "TRIVIAL", "ZetaReport",
           "zeta_inverse", "directed_zeta_inverse", "adjacency_spectrum",
           "is_ramanujan", "xi_functional_check", "analyze", "plot_points",
           "classify_moduli"]
