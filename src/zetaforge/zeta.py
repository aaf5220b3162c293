"""Zeta assembly, pole analysis and Riemann-hypothesis classification.

The reciprocal zeta function of a partially directed multigraph is the
exact integer polynomial

    (1 - z^2)^(m - n) * det(I - A z + Q z^2 + P z^3)

with A the full adjacency matrix, P the arrows-only matrix, Q the
diagonal of undirected degrees minus one, n the node count and m the
edge count.  A node with no undirected edge has Q_ii = -1 and only
arrows in its row of A, so that row is (1 - z^2) times the row of
I - A z: the determinant takes the shorter row, and each such node adds
one to the prefactor's exponent.  When the exponent is negative the
prefactor becomes an exact division, whose failure would contradict
rationality and raises.  On an arrows-only graph the polynomial is
det(I - A z), the characteristic polynomial of A with its coefficients
reversed (directed_zeta_inverse).

For a (q+1)-regular undirected graph the xi functional equation is
decided exactly, by the identity between the reversal of the polynomial
and the polynomial itself that remains once the common factors cancel
(see _xi_holds); for q = 1 it is a palindrome test.
"""

from __future__ import annotations

import math

from .graphs import (MixedGraph, _Frozen, degree_profile, is_connected,
                     matrices)
from .intpoly import IntPoly, _norm, _roots_between, exact_div
from .polydet import char_poly, det_poly
from .rootfind import RootSet, find_roots

STRONG = "Strong"
WEAK = "Weak"
VIOLATED = "Violated"
TRIVIAL = "Trivial"

# one-letter flags of the reference catalog and the CLI report
_FLAGS = {STRONG: "S", WEAK: "W", VIOLATED: "N", TRIVIAL: "T"}

_ANNULUS_EPS = 1e-9   # open-annulus slack: boundary poles do not violate
_MODULUS_TOL = 1e-8


def zeta_inverse(g: MixedGraph) -> IntPoly:
    """Reciprocal zeta polynomial of g, arrows one-way; constant term 1."""
    b = matrices(g)
    rows = []
    power = g.edge_count - g.node_count
    raw = IntPoly._raw  # entries of counts from matrices need no int check
    for i, (adj, arr) in enumerate(zip(b.adjacency, b.arrows)):
        q = sum(adj.values()) - sum(arr.values()) - 1  # undirected degree - 1
        if q < 0:
            # no undirected edge: the row is (1 - z^2) * (e_i - z A_i),
            # and the factor joins the prefactor
            row = {j: raw((0, -a)) for j, a in adj.items()}
            row[i] = raw((1,))
            power += 1
        else:
            # arrows count in the adjacency, so its support covers both;
            # a row holds only its nonzero entries, so an absent one reads
            # as 0, and the arrows' diagonal is empty (no arrow self-loops)
            row = {j: raw(_norm((0, -a, 0, arr.get(j, 0))))
                   for j, a in adj.items()}
            row[i] = raw(_norm((1, -adj.get(i, 0), q)))
        rows.append(row)
    result = _times_one_minus_z2(det_poly(rows), power)
    assert result.constant_term == 1
    return result


def _times_one_minus_z2(p: IntPoly, power: int) -> IntPoly:
    """p * (1 - z^2)^power; a negative power is an exact division, which
    raises DivisibilityError unless (1 - z^2)^-power divides p."""
    if not power:
        return p
    k = abs(power)
    coeffs = [0] * (2 * k + 1)  # binomial coefficients at the even powers
    coeffs[::2] = [(-1) ** m * math.comb(k, m) for m in range(k + 1)]
    factor = IntPoly._raw(tuple(coeffs))
    return p * factor if power > 0 else exact_div(p, factor)


def directed_zeta_inverse(g: MixedGraph) -> IntPoly:
    """det(I - z A) for an arrows-only graph; equals zeta_inverse(g).

    With n nodes, det(I - z A) = z^n chi_A(1/z): the characteristic
    polynomial of the adjacency matrix with its coefficients reversed."""
    if g.edges:
        raise ValueError("graph has undirected edges; only fully directed "
                         "graphs admit the det(I - zA) form")
    return IntPoly(char_poly(matrices(g).adjacency).coeffs[::-1])


def adjacency_spectrum(g: MixedGraph) -> RootSet:
    """Eigenvalues of the full adjacency matrix (complex for chiral graphs)."""
    return find_roots(char_poly(matrices(g).adjacency))


def _regular_degree(g: MixedGraph, what: str) -> int:
    """The degree of an undirected regular graph; raises ValueError,
    naming what needs it, on any other graph."""
    if not g.is_undirected:
        raise ValueError(f"{what} requires an undirected graph")
    profile = degree_profile(g)
    if not profile.is_regular:
        raise ValueError(f"{what} requires a regular graph")
    return profile.max_degree


def is_ramanujan(g: MixedGraph) -> bool:
    """Whether a regular undirected graph has all nontrivial adjacency
    eigenvalues (those other than +-degree) within 2*sqrt(degree - 1) in
    absolute value.

    Decided exactly, with no eigenvalue computed.  Every eigenvalue of a
    k-regular graph has |lambda| <= k, so the graph is Ramanujan iff no
    lambda^2 lies in the open interval (4(k - 1), k^2), which is empty
    for k = 2 alone.  With chi(x) = E(x^2) + x O(x^2), H(y) = E(y)^2 -
    y O(y)^2 has the roots lambda^2, all real, so _roots_between counts
    them exactly.
    """
    k = _regular_degree(g, "Ramanujan test")
    if k == 2:
        return True
    chi = char_poly(matrices(g).adjacency).coeffs
    even, odd = IntPoly(chi[0::2]), IntPoly(chi[1::2])
    h = even * even - IntPoly.term(1, 1) * odd * odd
    return not _roots_between(h.coeffs, 4 * (k - 1), k * k)


def _q_reversal(p: IntPoly, q: int) -> IntPoly:
    """(qz)^deg(p) * p(1/(qz)) as an integer polynomial."""
    out, power = [], 1
    for c in reversed(p.coeffs):
        out.append(c * power)
        power *= q
    return IntPoly(out)


def xi_functional_check(g: MixedGraph) -> bool:
    """Exact check of the xi functional equation xi(z) = xi(1/(qz)) for a
    (q+1)-regular undirected graph, q >= 1, where
    xi(z) = (1+z)^(m-n) (1-z)^m (1-qz)^n / zeta_inverse(z)."""
    q = _regular_degree(g, "xi functional equation") - 1
    if q < 1:
        raise ValueError("degree-1 regular graph: no functional equation")
    return _xi_holds(zeta_inverse(g), q, g.node_count, g.edge_count)


def _xi_holds(denom: IntPoly, q: int, n: int, m: int) -> bool:
    """xi functional equation for the reciprocal zeta polynomial D =
    denom, of degree d, of a (q+1)-regular undirected graph with n nodes
    and m edges, so 2m = (q+1)n and m >= n.

    With N = (1+z)^(m-n) (1-z)^m (1-qz)^n and rev_q(f) = (qz)^deg(f)
    f(1/(qz)), the equation N/D = xi(1/(qz)) reads N (qz)^(2m) rev_q(D)
    = rev_q(N) (qz)^d D.  rev_q(N) = (-1)^m (-q)^n (1+qz)^(m-n) (1-qz)^m
    (1-z)^n, so the common factor (1-z)^n (1-qz)^n q^(n+d) z^d cancels to

        q^(2m-n-d) z^(2m-d) (1-z^2)^(m-n) rev_q(D)
            = (-1)^(m+n) (1-q^2 z^2)^(m-n) D,

    a power of z with a negative exponent moving to the other side.
    Every factor but that power is nonzero at z = 0 (D(0) = 1), so the
    identity needs d = 2m and then reads

        (1-z^2)^(m-n) rev_q(D) = (-1)^(m+n) q^n (1-q^2 z^2)^(m-n) D.

    The binomial powers are equal for q = 1, which leaves a palindrome
    test."""
    if denom.degree != 2 * m:
        return False
    lhs = _q_reversal(denom, q)
    rhs = denom * (-q ** n if (m + n) & 1 else q ** n)
    lhs = _times_one_minus_z2(lhs, m - n)
    rhs = rhs * IntPoly((1, 0, -q * q)) ** (m - n)
    return lhs == rhs


class ZetaReport(_Frozen):
    """Pole analysis and classification verdicts for one graph.

    classification is Strong/Weak/Violated per the open pole-free annuli
    (R, sqrt(R)) and (R, 1/sqrt(q)), with R the smallest pole modulus,
    or Trivial when the reciprocal zeta is constant (forests).  q and p
    are max/min total degree minus one; ramanujan and xi_functional_ok
    are None when the graph is not regular undirected.  kotani_sunada_ok
    records the degree bound 1/q <= R <= 1/p, tested only on undirected
    graphs (where the theorem lives) and vacuously true otherwise.
    """

    def __init__(self, zeta_inverse: IntPoly, poles: RootSet, r_g: float,
                 p: int, q: int, classification: str,
                 ramanujan: bool | None, kotani_sunada_ok: bool,
                 xi_functional_ok: bool | None, connected: bool):
        self.__dict__.update(
            zeta_inverse=zeta_inverse, poles=poles, r_g=r_g, p=p, q=q,
            classification=classification, ramanujan=ramanujan,
            kotani_sunada_ok=kotani_sunada_ok,
            xi_functional_ok=xi_functional_ok, connected=connected)

    def to_json_dict(self) -> dict:
        return {
            "zeta_inverse": [str(c) for c in self.zeta_inverse.coeffs],
            "poles": [{"re": r.real, "im": r.imag, "multiplicity": m}
                      for r, m in self.poles],
            "residual_bound": self.poles.residual_bound,
            # JSON has no infinity: a forest's r_g (no poles) is null
            "r_g": self.r_g if math.isfinite(self.r_g) else None,
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


def _verdict(g: MixedGraph, found: dict):
    """(zeta polynomial, poles, R, degree profile, classification) of g,
    with no spectrum and no xi check.  found maps the polynomials whose
    roots the caller has found to their poles; g's are taken from it or
    added to it."""
    zi = zeta_inverse(g)
    poles = found.get(zi)
    if poles is None:
        poles = found[zi] = find_roots(zi)
    moduli = poles.moduli()
    r_g = min(moduli, default=float("inf"))
    profile = degree_profile(g)
    classification = classify_moduli(moduli, r_g, profile.max_degree - 1)
    return zi, poles, r_g, profile, classification


def analyze(g: MixedGraph) -> ZetaReport:
    """Full zeta report: polynomial, poles, R, classification, verdicts."""
    zi, poles, r_g, profile, classification = _verdict(g, {})
    q = profile.max_degree - 1
    p = profile.min_degree - 1

    if poles and g.is_undirected:
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
        ramanujan = is_ramanujan(g)
        if q >= 1:
            xi_ok = _xi_holds(zi, q, g.node_count, g.edge_count)
    return ZetaReport(zi, poles, r_g, p, q, classification, ramanujan,
                      ks_ok, xi_ok, is_connected(g))


def plot_points(g: MixedGraph) -> list[tuple[float, float, str]]:
    """(re, im, kind) rows for poles and adjacency eigenvalues, suitable
    for scatter plots; one row per multiplicity.

    Computes only the poles and the spectrum, one pass each.  A caller
    that already holds a ZetaReport has the polynomial in
    ZetaReport.zeta_inverse and its poles in ZetaReport.poles, so it
    needs no second zeta_inverse."""
    rows = []
    for root, mult in find_roots(zeta_inverse(g)):
        rows.extend([(root.real, root.imag, "pole")] * mult)
    for lam, mult in adjacency_spectrum(g):
        rows.extend([(lam.real, lam.imag, "eigenvalue")] * mult)
    return rows

