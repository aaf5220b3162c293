"""Complex roots of integer polynomials with exact multiplicities.

The polynomial is first split into square-free factors (exact integer
arithmetic), so the simultaneous Aberth-Ehrlich iteration only ever sees
simple roots and converges quadratically; multiplicities come from the
square-free splitting instead of from fragile numerical clustering.
Initial guesses follow a fixed radius/angle schedule, so repeated runs
are bit-for-bit identical.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .intpoly import IntPoly, squarefree_factors

DEFAULT_TOL = 1e-12
DEFAULT_MERGE = 1e-8
_MAX_ITER = 400
_ANGLE_OFFSET = 0.39  # radians; keeps starting points off symmetry axes


class NumericalError(RuntimeError):
    """Root iteration failed to converge within the iteration cap."""


@dataclass(frozen=True)
class RootSet:
    """Roots with multiplicities, plus the worst observed residual."""

    roots: tuple[tuple[complex, int], ...]
    residual_bound: float

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.roots)

    def moduli(self) -> list[float]:
        return [abs(r) for r, _ in self.roots]

    def min_modulus(self) -> float:
        return min(self.moduli(), default=float("inf"))


def _float_coeffs(p: IntPoly) -> list[float]:
    scale = max(abs(c) for c in p.coeffs)
    if scale < 10**280:
        return [float(c) for c in p.coeffs]
    # beyond float range: normalize by the largest coefficient (same roots;
    # residuals are then relative to that coefficient)
    return [c / scale for c in p.coeffs]


def _horner2(coeffs: list[float], x: complex) -> tuple[complex, complex]:
    """Value and derivative at x."""
    v = 0j
    d = 0j
    for c in reversed(coeffs):
        d = d * x + v
        v = v * x + c
    return v, d


_EPS = 2.220446049250313e-16


def _eval_floor(coeffs: list[float], x: float) -> float:
    """Backward-error bound on Horner evaluation at |z| = x: once |p(z)|
    drops below this, the root is as converged as float64 permits."""
    acc = 0.0
    power = 1.0
    for c in coeffs:
        acc += abs(c) * power
        power *= x
    return 4.0 * _EPS * acc


def _converged(coeffs: list[float], scale: float, size: float,
               x: float) -> bool:
    """Whether size = |p(z)| at |z| = x is at most _eval_floor(coeffs, x),
    with scale = 2 * sum|c|.  The floor is computed only when size is at
    most 4*eps*sum|c|*max(1, x)^deg, an upper bound on it; the factor 2 in
    scale covers the rounding of both and makes the bound overflow to inf
    wherever the floor can."""
    try:
        cap = 4.0 * _EPS * (scale * max(1.0, x) ** (len(coeffs) - 1))
    except OverflowError:
        cap = float("inf")
    return size <= cap and size <= _eval_floor(coeffs, x)


def _aberth(coeffs: list[float], tol: float) -> list[complex]:
    """All roots of a square-free polynomial given by float coefficients."""
    deg = len(coeffs) - 1
    lead = coeffs[-1]
    radius = 1.0 + max(abs(c / lead) for c in coeffs[:-1])
    z = [radius * cmath.exp(2j * cmath.pi * (k / deg) + 1j * _ANGLE_OFFSET)
         for k in range(deg)]
    if deg == 1:
        return [-coeffs[0] / coeffs[1]]
    done = [False] * deg
    scale = 2.0 * sum(abs(c) for c in coeffs)
    worst = float("inf")
    for _ in range(_MAX_ITER):
        worst = 0.0
        for k in range(deg):
            if done[k]:
                continue
            zk = z[k]
            val, der = _horner2(coeffs, zk)
            if _converged(coeffs, scale, abs(val), abs(zk)):
                done[k] = True
                continue
            if der == 0:
                z[k] = zk * (1.0 + 1e-6) + 1e-6
                worst = float("inf")
                continue
            w = val / der
            s = 0j
            for zj in z[:k]:
                diff = zk - zj
                if not diff:
                    diff = tol
                s += 1.0 / diff
            for zj in z[k + 1:]:
                diff = zk - zj
                if not diff:
                    diff = tol
                s += 1.0 / diff
            denom = 1.0 - w * s
            step = w if denom == 0 else w / denom
            z[k] = zk - step
            rel = abs(step) / max(1.0, abs(z[k]))
            if rel > worst:
                worst = rel
        if worst <= tol or all(done):
            return z
    raise NumericalError(
        f"Aberth iteration did not reach tol={tol} within {_MAX_ITER} "
        f"sweeps (degree {deg}, last correction {worst:.3e})")


def _merge(cands: list[tuple[complex, int]], merge_tol: float):
    """Greedy clustering of (root, multiplicity) pairs within merge_tol."""
    cands = sorted(cands, key=lambda rm: (rm[0].real, rm[0].imag))
    out: list[tuple[complex, int]] = []
    for root, mult in cands:
        for i, (r0, m0) in enumerate(out):
            if abs(root - r0) <= merge_tol:
                total = m0 + mult
                out[i] = ((r0 * m0 + root * mult) / total, total)
                break
        else:
            out.append((root, mult))
    return out


def find_roots(p: IntPoly, tol: float = DEFAULT_TOL,
               merge_tol: float = DEFAULT_MERGE) -> RootSet:
    """All complex roots of a nonzero integer polynomial.

    Returns a RootSet whose multiplicities sum to deg(p); roots closer
    than merge_tol are merged.  Raises NumericalError on non-convergence.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has every point as a root")
    if p.degree == 0:
        return RootSet((), 0.0)
    zero_mult = 0
    while p.coeffs[zero_mult] == 0:
        zero_mult += 1
    if zero_mult:
        p_reduced = IntPoly(p.coeffs[zero_mult:])
    else:
        p_reduced = p
    cands: list[tuple[complex, int]] = []
    if zero_mult:
        cands.append((0j, zero_mult))
    if p_reduced.degree > 0:
        for factor, mult in squarefree_factors(p_reduced):
            for root in _aberth(_float_coeffs(factor), tol):
                cands.append((root, mult))
    merged = tuple(_merge(cands, merge_tol))
    fc = _float_coeffs(p)
    residual = max((abs(_horner2(fc, r)[0]) for r, _ in merged), default=0.0)
    return RootSet(merged, residual)
