"""Output checks that do not trust the code they check.

The reference reciprocal zeta polynomial of a graph must satisfy, at a
few integer points z0,

    zeta_inverse(z0) == (1 - z0^2)^(m - n) * det(I - A z0 + Q z0^2 + P z0^3)

where the right-hand side comes from the sparse fraction-free integer
elimination below, written from the graph document without any code
of the package.  Poles and eigenvalues are checked against exact power
sums (Newton's identities on the reference coefficients, traces of the
adjacency matrix); census counts against the logarithmic-derivative
series of the reference polynomial.

A check returns None when the output is right, or a Failure.  A failure
is *numerical* when the program printed a non-finite value, exited with
its numerical-failure code, or printed finite roots that miss the exact
power sums: the pole-finding defect class the roadmap tracks.  Every
other failure (a wrong exact coefficient or count, another exit code, an
exception, unparseable output) is a wrong answer.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

POINTS = (2, -3, 7)
EXIT_NUMERIC = 3
# Relative tolerance on a power sum, scaled by the sum of magnitudes.
_REL_TOL = 1e-6


class Failure(NamedTuple):
    numerical: bool
    reason: str


def _wrong(reason):
    return Failure(False, reason)


def _numeric(reason):
    return Failure(True, reason)


# ---------------------------------------------------------------------------
# exact determinants of integer matrices


def int_det(rows: list[dict[int, int]]) -> int:
    """Determinant of a sparse integer matrix given as one {column: value}
    dict per row, by fraction-free (Bareiss) elimination.

    A row that is not touched at step k would be scaled by p_k / p_(k-1);
    that scaling is deferred until the row is next used, so the cost
    follows the fill-in rather than n^3 (banded matrices stay cheap).
    """
    n = len(rows)
    rows = [dict(r) for r in rows]
    level = [0] * n     # row i holds the level-level[i] Bareiss minors
    pivots = [1]        # pivots[k] is the divisor of step k
    sign = 1

    def lift(i, k):
        if level[i] != k:
            num, den = pivots[k], pivots[level[i]]
            lifted = {}
            for j, v in rows[i].items():
                q, r = divmod(v * num, den)
                if r:
                    raise ArithmeticError("inexact Bareiss scaling")
                lifted[j] = q
            rows[i] = lifted
            level[i] = k

    for k in range(n):
        if not rows[k].get(k):
            for i in range(k + 1, n):
                if rows[i].get(k):
                    rows[k], rows[i] = rows[i], rows[k]
                    level[k], level[i] = level[i], level[k]
                    sign = -sign
                    break
            else:
                return 0
        lift(k, k)
        pivot_row = rows[k]
        p = pivot_row[k]
        if k == n - 1:
            return sign * p
        den = pivots[k]
        for i in range(k + 1, n):
            if not rows[i].get(k):
                continue
            lift(i, k)
            row = rows[i]
            a = row[k]
            new = {}
            for j in row.keys() | pivot_row.keys():
                if j <= k:
                    continue
                q, r = divmod(p * row.get(j, 0) - a * pivot_row.get(j, 0),
                              den)
                if r:
                    raise ArithmeticError("inexact Bareiss step")
                if q:
                    new[j] = q
            rows[i] = new
            level[i] = k + 1
        pivots.append(p)
    return sign  # n == 0


class Walk(NamedTuple):
    """Walk matrices of a normalized graph document, as sparse dicts."""
    n: int
    adjacency: list[dict[int, int]]
    arrows: list[dict[int, int]]
    degree: list[int]          # undirected degree, loops twice
    exponent: int              # n - m


def walk(doc: dict) -> Walk:
    n = doc["nodes"]
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    arr: list[dict[int, int]] = [{} for _ in range(n)]
    degree = [0] * n
    for i, j in doc["edges"]:
        if i == j:
            adj[i][i] = adj[i].get(i, 0) + 2
            degree[i] += 2
        else:
            adj[i][j] = adj[i].get(j, 0) + 1
            adj[j][i] = adj[j].get(i, 0) + 1
            degree[i] += 1
            degree[j] += 1
    for i, j in doc["arrows"]:
        if i == j:
            raise ValueError("graph document has an arrow self-loop")
        adj[i][j] = adj[i].get(j, 0) + 1
        arr[i][j] = arr[i].get(j, 0) + 1
    for i in range(n):
        if any(arr[j].get(i) for j in arr[i]):
            raise ValueError("graph document has reciprocal arrows")
    return Walk(n, adj, arr, degree, n - len(doc["edges"]))


def zeta_det_at(w: Walk, z0: int) -> int:
    """det(I - A z0 + Q z0^2 + P z0^3)."""
    rows = []
    for i in range(w.n):
        row = {j: -a * z0 for j, a in w.adjacency[i].items()}
        for j, p in w.arrows[i].items():
            row[j] += p * z0 ** 3
        row[i] = row.get(i, 0) + 1 + (w.degree[i] - 1) * z0 * z0
        rows.append({j: v for j, v in row.items() if v})
    return int_det(rows)


def evaluate(coeffs, z0: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z0 + c
    return acc


def confirms(coeffs, w: Walk) -> bool:
    """Whether coeffs is the reciprocal zeta polynomial of w at every
    check point."""
    if not coeffs or coeffs[0] != 1:
        return False
    for z0 in POINTS:
        lhs, rhs = evaluate(coeffs, z0), zeta_det_at(w, z0)
        factor = 1 - z0 * z0
        if w.exponent <= 0:
            rhs *= factor ** -w.exponent
        else:
            lhs *= factor ** w.exponent
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# power sums


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def pole_sums(coeffs) -> tuple[int, int]:
    """Sum of 1/z and of 1/z^2 over the roots of a polynomial with
    constant term 1 (Newton's identities)."""
    c1 = coeffs[1] if len(coeffs) > 1 else 0
    c2 = coeffs[2] if len(coeffs) > 2 else 0
    return -c1, c1 * c1 - 2 * c2


def _close(got: complex, want: int, scale: float) -> bool:
    return abs(got - want) <= _REL_TOL * (1.0 + scale)


def check_poles(poles, coeffs) -> Failure | None:
    """poles: (root, multiplicity) pairs of the polynomial coeffs."""
    if any(not _finite(z) for z, _ in poles):
        return _numeric("non-finite pole")
    degree = len(coeffs) - 1
    if sum(m for _, m in poles) != degree:
        return _numeric("pole multiplicities do not add up to the degree")
    if any(z == 0 for z, _ in poles):
        return _numeric("pole at zero")
    s1, s2 = pole_sums(coeffs)
    got1 = sum(m / z for z, m in poles)
    got2 = sum(m / (z * z) for z, m in poles)
    scale1 = sum(m / abs(z) for z, m in poles)
    scale2 = sum(m / abs(z) ** 2 for z, m in poles)
    if not (_close(got1, s1, scale1) and _close(got2, s2, scale2)):
        return _numeric("poles miss the power sums of the coefficients")
    return None


def check_eigenvalues(eigs, w: Walk) -> Failure | None:
    if any(not _finite(z) for z, _ in eigs):
        return _numeric("non-finite eigenvalue")
    if sum(m for _, m in eigs) != w.n:
        return _numeric("eigenvalue multiplicities do not add up to n")
    trace1 = sum(w.adjacency[i].get(i, 0) for i in range(w.n))
    trace2 = sum(a * w.adjacency[j].get(i, 0)
                 for i in range(w.n) for j, a in w.adjacency[i].items())
    got1 = sum(m * z for z, m in eigs)
    got2 = sum(m * z * z for z, m in eigs)
    scale = sum(m * abs(z) ** 2 for z, m in eigs)
    if not (_close(got1, trace1, scale) and _close(got2, trace2, scale)):
        return _numeric("eigenvalues miss the traces of A and A^2")
    return None


# ---------------------------------------------------------------------------
# per-verb output checks


def _all_finite(value) -> bool:
    """Whether every float anywhere in a parsed JSON value is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def check_zeta(doc, ref) -> Failure | None:
    coeffs = [int(c) for c in doc["zeta_inverse"]]
    if coeffs != ref:
        return _wrong("zeta coefficients differ from the reference")
    return None


def check_rh(doc, ref) -> Failure | None:
    wrong = check_zeta(doc, ref)
    if wrong:
        return wrong
    if not _all_finite(doc):
        return _numeric("non-finite pole, R_G or residual")
    poles = [(complex(p["re"], p["im"]), p["multiplicity"])
             for p in doc["poles"]]
    bad = check_poles(poles, ref)
    if bad:
        return bad
    if poles and not math.isclose(doc["r_g"], min(abs(z) for z, _ in poles),
                                  rel_tol=_REL_TOL):
        return _numeric("R_G is not the smallest pole modulus")
    return None


def check_spectrum(doc, w: Walk) -> Failure | None:
    eigs = [(complex(e["re"], e["im"]), e["multiplicity"])
            for e in doc["eigenvalues"]]
    return check_eigenvalues(eigs, w)


def check_plot(text: str, ref, w: Walk) -> Failure | None:
    lines = text.splitlines()
    if not lines or lines[0] != "re,im,kind":
        return _wrong("export-plot header missing")
    rows = {"pole": [], "eigenvalue": []}
    for line in lines[1:]:
        re, im, kind = line.split(",")
        rows[kind].append((complex(float(re), float(im)), 1))
    return (check_poles(rows["pole"], ref)
            or check_eigenvalues(rows["eigenvalue"], w))


def check_primes(doc, series: list[int]) -> Failure | None:
    """series: closed-walk counts N_1..N_L from the reference polynomial."""
    closed, primes = doc["closed_counts"], doc["prime_counts"]
    if closed != series:
        return _wrong("census closed-walk counts differ from the series")
    for m in range(1, len(closed) + 1):
        derived = sum(d * primes[d - 1] for d in range(1, m + 1) if m % d == 0)
        if derived != closed[m - 1]:
            return _wrong(f"prime classes do not add up at length {m}")
    if not _all_finite(doc):
        return _numeric("non-finite prime-number-theorem ratio")
    return None


def check_catalog(doc, expected_ids) -> Failure | None:
    rows = doc["rows"]
    if sorted(r["id"] for r in rows) != sorted(expected_ids):
        return _wrong("catalog-verify rows do not match the records")
    bad = [r["id"] for r in rows if not r["ok"]]
    if bad or not doc["ok"]:
        return _wrong(f"catalog-verify reports mismatches on {bad}")
    return None


def parse(verb: str, text: str):
    """The JSON document of a verb's output (export-plot stays text)."""
    return text if verb == "export-plot" else json.loads(text)


def quiver_doc(matrix) -> dict:
    """Graph document of a catalog quiver matrix: the diagonal is twice
    the loop count, matched off-diagonal pairs are edges and the surplus
    direction carries arrows."""
    n = len(matrix)
    edges, arrows = [], []
    for i in range(n):
        edges += [[i, i]] * (matrix[i][i] // 2)
        for j in range(i + 1, n):
            both = min(matrix[i][j], matrix[j][i])
            edges += [[i, j]] * both
            arrows += [[i, j]] * (matrix[i][j] - both)
            arrows += [[j, i]] * (matrix[j][i] - both)
    return {"nodes": n, "edges": edges, "arrows": arrows}
