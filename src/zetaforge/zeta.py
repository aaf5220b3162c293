"""Zeta assembly, pole analysis and Riemann-hypothesis classification.

The reciprocal zeta function of a partially directed multigraph is the
exact integer polynomial

    (1 - z^2)^(m - n) * det(I - A z + Q z^2 + P z^3)

with A the full adjacency matrix, P the arrows-only matrix, Q the
diagonal of undirected degrees minus one, n the node count and m the
edge count.  zeta counts prime cycles by their length alone, so it is
the same on the series-reduced core (_series_core): leaves, sinks and
sources stripped, and each node with just two edges, or just one arrow
in and another out, folded into one edge or arrow of the summed length.
The core's Bass matrix with lengths (_bass_rows) has the rows of the
form above when every length is 1; a node with no undirected edge then
has Q_ii = -1 and only arrows in its row of A, so that row is (1 - z^2)
times the row of I - A z, and the determinant takes the shorter row.
The prefactor is a product of powers of 1 - z^(2l); a negative power is
an exact division, whose failure would contradict rationality and
raises.  A cycle's core is one loop, and a forest's is empty, with
zeta^-1 = 1.  On an arrows-only graph the polynomial is det(I - A z),
the characteristic polynomial of A with its coefficients reversed
(directed_zeta_inverse).

For a (q+1)-regular undirected graph the xi functional equation is
decided exactly, by the identity between the reversal of the polynomial
and the polynomial itself that remains once the common factors cancel
(see _xi_holds); for q = 1 it is a palindrome test.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .graphs import (MatrixBundle, MixedGraph, _Frozen, degree_profile,
                     is_connected, matrices)
from .intpoly import (ONE, IntPoly, _add, _norm, _roots_between,
                      exact_div)
from .polydet import char_poly, det_poly
from .rootfind import RootSet, find_roots

STRONG = "Strong"
WEAK = "Weak"
VIOLATED = "Violated"
TRIVIAL = "Trivial"

# one-letter flags of the reference catalog and the CLI report
_FLAGS = {STRONG: "S", WEAK: "W", VIOLATED: "N", TRIVIAL: "T"}

_ANNULUS_EPS = 1e-9   # open-annulus slack: boundary poles do not violate


def zeta_inverse(g: MixedGraph) -> IntPoly:
    """Reciprocal zeta polynomial of g, arrows one-way; constant term 1.

    The determinant is taken on g's series-reduced core (_series_core):
    leaves, sinks and sources stripped and pass-through nodes folded into
    edges and arrows with lengths, so that a cycle is one loop and a
    forest nothing.  Its rows are Bass's with lengths (_bass_rows), and
    the prefactor a product of powers of 1 - z^(2l), multiplied in before
    any division.
    A graph that does not reduce is its own core, every length 1, with
    the rows and prefactor of (1 - z^2)^(m - n) det(I - Az + Qz^2 + Pz^3)."""
    b = matrices(g)
    layers = _series_core(g, b)
    if layers is None:  # g is its own core, every length 1
        layers = [{1: pair} for pair in zip(b.adjacency, b.arrows)]
    rows, balance = _bass_rows(layers)
    result = det_poly(rows) if rows else ONE
    for length, power in balance.items():  # the products first
        if power > 0:
            result = _times_one_minus_z2(result, power, length)
    for length, power in balance.items():  # then each division is exact
        if power < 0:
            result = _times_one_minus_z2(result, power, length)
    if result.constant_term != 1:  # an explicit raise survives python -O
        raise AssertionError(f"zeta^-1 has constant term "
                             f"{result.constant_term}, not 1")
    return result


def _series_core(g: MixedGraph, b: MatrixBundle) -> list[dict] | None:
    """The layers of g's series-reduced core, or None when g is its own.

    Four rules apply until none does, each removing one node:
    - a leaf, whose only link is one non-loop edge, goes with its edge;
    - a sink or a source, with no edge and arrows one way only, goes
      with its arrows;
    - a node whose only links are two distinct non-loop edges, to u and
      w, becomes one edge u-w of the summed length (a loop when u = w);
    - a node whose only links are one arrow in, from u, and another out,
      to w, becomes one arrow u->w of the summed length (a loop of one
      dart when u = w).
    No closed non-backtracking walk enters a leaf, a sink or a source,
    and one through a pass-through node runs the whole chain, so each
    rule keeps the prime cycles and their lengths, and with them zeta.  A
    node left with no link has the identity row and is dropped as well.
    A reciprocal arrow pair that a merge makes stays two arrows: the core
    is no MixedGraph and is never normalized.

    Layer k of the core lists node k's links by length, each as a pair of
    rows in matrices' form: the links to each node and the arrows among
    them.  g's walk matrices b screen out a graph on which no rule can
    start before anything is built."""
    # a rule's node has no arrow out and at most two edge-ends, or one
    # arrow out and no edge, or is a source; the rows count edge-ends and
    # arrows out, and heads holds the nodes with an arrow in
    heads = set().union(*b.arrows)
    stack = [i for i, (adj, arr) in enumerate(zip(b.adjacency, b.arrows))
             if sum(adj.values()) <= (1 if arr else 2)
             or i not in heads and adj == arr]
    if not stack:
        return None
    n = g.node_count
    ends = [{} for _ in range(n)]  # edge id -> its ends at the node
    ins = [{} for _ in range(n)]   # arrow ids, as ordered sets
    outs = [{} for _ in range(n)]
    edges, arrows = {}, {}         # id -> (tail, head, length)
    for k, (i, j) in enumerate(g.edges):
        edges[k] = (i, j, 1)
        ends[i][k] = ends[i].get(k, 0) + 1  # a loop has two ends
        ends[j][k] = ends[j].get(k, 0) + 1
    for k, (i, j) in enumerate(g.arrows, len(edges)):
        arrows[k] = (i, j, 1)
        outs[i][k] = ins[j][k] = None
    fresh = len(edges) + len(arrows)
    while stack:
        v = stack.pop()
        at, into, out = ends[v], ins[v], outs[v]
        if not at and not (into and out):  # a sink or a source
            for a in [*into, *out]:
                u, w, _ = arrows.pop(a)
                del outs[u][a], ins[w][a]
                stack.append(w if u == v else u)  # the other end
        elif into or out:
            if (at or len(into) != 1 or len(out) != 1
                    or into.keys() == out.keys()):
                continue
            (a,), (c,) = into, out
            u, _, first = arrows.pop(a)
            _, w, second = arrows.pop(c)
            del outs[u][a], ins[w][c]
            arrows[fresh] = (u, w, first + second)
            outs[u][fresh] = ins[w][fresh] = None
        elif sum(at.values()) == 1:
            (e,) = at
            i, j, _ = edges.pop(e)
            u = j if i == v else i
            del ends[u][e]
            stack.append(u)  # u may have become a leaf or a pass-through
        elif len(at) == 2 and sum(at.values()) == 2:
            (e, f) = at
            i, j, first = edges.pop(e)
            k, h, second = edges.pop(f)
            u, w = (j if i == v else i), (h if k == v else k)
            del ends[u][e], ends[w][f]
            edges[fresh] = (u, w, first + second)
            ends[u][fresh] = ends[u].get(fresh, 0) + 1
            ends[w][fresh] = ends[w].get(fresh, 0) + 1
        else:
            continue
        at.clear()  # v is gone, and a later pop finds no link
        into.clear()
        out.clear()
        fresh += 1
    keep = [v for v in range(n) if ends[v] or ins[v] or outs[v]]
    if len(keep) == n:
        return None
    index = {v: k for k, v in enumerate(keep)}
    layers = [{} for _ in keep]
    for links, directed in ((edges, False), (arrows, True)):
        for u, w, length in links.values():
            i, j = index[u], index[w]
            adj, arr = layers[i].setdefault(length, ({}, {}))
            adj[j] = adj.get(j, 0) + 1
            if directed:
                arr[j] = arr.get(j, 0) + 1
            else:  # the other end; a loop adds two on the diagonal
                back = layers[j].setdefault(length, ({}, {}))[0]
                back[i] = back.get(i, 0) + 1
    return layers


def _bass_rows(layers: list[dict]) -> tuple[list[dict], dict]:
    """Rows of the Bass matrix of a graph whose links have lengths, given
    as _series_core's layers, and the power of each binomial 1 - z^(2l)
    that turns its determinant into zeta^-1.

    Node i's row multiplier L_i is the product of 1 - z^(2l) over the
    distinct lengths l of its edges, loops included (1 for a node with
    no edge), and P_l = z^l L_i / (1 - z^(2l)).  Row i is L_i times row i
    of a rational matrix whose determinant times prod_e (1 - z^(2 l_e)) is
    zeta^-1 (Bass 1992, with lengths).  Its diagonal starts at L_i, and a
    links of length l from i to j, c of them arrows, add

        P_l (d z^l - a + c z^(2l))

    to entry (i, j), with d node i's edge-ends of length l on the
    diagonal and 0 off it; where node i has arrows only of length l, they
    add -a z^l L_i.  Then zeta^-1 = det P * prod_e (1 - z^(2 l_e)) /
    prod_i L_i, so the power of 1 - z^(2l) is its edges less its nodes.
    With every length 1, P_1 = z and L_i = 1 - z^2 (1 at an edge-free
    node), which gives the entries (0, -a, 0, c) and (1, -a_ii, d - 1)
    and the power m - n plus the edge-free nodes."""
    raw = IntPoly._raw  # sums of _cell's entries need no int check
    rows, half = [], {}  # half: twice each power
    for i, layer in enumerate(layers):
        lengths = tuple([length for length, (adj, arr) in layer.items()
                         if adj != arr])  # the lengths of node i's edges
        row, base = {}, True  # base: L_i is still to go on the diagonal
        for length, (adj, arr) in layer.items():
            if adj != arr:
                d = sum(adj.values()) - sum(arr.values())
                half[length] = half.get(length, 0) + d - 2
                entry = _cell(lengths, length, d, adj.get(i, 0),
                              arr.get(i, 0), base)
                row[i] = raw(_add(row[i].coeffs, entry.coeffs)) \
                    if i in row else entry
                base, skip = False, i  # the diagonal is done
            else:  # arrows only: -a z^l L_i, which is _cell's with c = 0
                arr, skip = {}, None
            for j, a in adj.items():
                if j != skip:
                    entry = _cell(lengths, length, 0, a, arr.get(j, 0), False)
                    row[j] = raw(_add(row[j].coeffs, entry.coeffs)) \
                        if j in row else entry
        if base:  # no edge: L_i = 1
            row[i] = raw(_add(row[i].coeffs, (1,))) if i in row else ONE
        rows.append(row)
    return rows, {length: h // 2 for length, h in half.items()}


@lru_cache(maxsize=512)
def _cell(lengths: tuple, length: int, d: int, a: int, c: int,
          base: bool) -> IntPoly:
    """P (d z^l - a + c z^(2l)) of _bass_rows, plus L when base, at a node
    whose edges have these distinct lengths.  P is z^l times 1 - z^(2k)
    for each of them but l, which is z^l L when l is not among them, and
    L = (P / z^l) (1 - z^(2l)) when it is.  A graph's entries repeat
    within it and across graphs, so each is built once."""
    p = IntPoly._raw((0,) * length + (1,))
    for other in lengths:
        if other != length:
            p = _times_one_minus_z2(p, 1, other)
    out = [0] * (len(p.coeffs) + 2 * length)
    for k, x in enumerate(p.coeffs):
        out[k - length] += base * x  # p has z^l as a factor
        out[k] -= a * x
        out[k + length] += (d - base) * x
        out[k + 2 * length] += c * x
    return IntPoly._raw(_norm(out))


def _times_one_minus_z2(p: IntPoly, power: int, length: int = 1) -> IntPoly:
    """p * (1 - z^(2 length))^power; a negative power is an exact division,
    which raises DivisibilityError unless (1 - z^(2 length))^-power
    divides p."""
    if not power:
        return p
    k, step = abs(power), 2 * length
    coeffs = [0] * (step * k + 1)  # binomial coefficients at step's multiples
    coeffs[::step] = [(-1) ** m * math.comb(k, m) for m in range(k + 1)]
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
    (R, sqrt(R)) and (R, 1/sqrt(q)), R = r_g the least positive pole, or
    Trivial for a constant reciprocal zeta (forests).  q and p are
    max/min total degree minus one; ramanujan and xi_functional_ok are
    None unless the graph is regular undirected.  kotani_sunada_ok tests
    1/q <= R <= 1/p exactly on undirected graphs, and is True otherwise.
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
    """Strong/Weak/Violated from pole moduli; the 1e-9 slack keeps poles
    on |z| = R other than R, or on |z| = sqrt(R), out of the annuli."""
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
    with no spectrum and no xi check; R is the least positive pole, the
    Perron root.  found maps the polynomials whose roots the caller has
    found to their poles; g's are taken from it or added to it."""
    zi = zeta_inverse(g)
    poles = found.get(zi)
    if poles is None:
        poles = found[zi] = find_roots(zi)
    moduli = poles.moduli()
    r_g = min((z.real for z, _ in poles if not z.imag and z.real > 0),
              default=float("inf"))
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
        ks_ok = (q < 1 or 1.0 / q <= r_g) and (p < 1 or r_g <= 1.0 / p)
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

