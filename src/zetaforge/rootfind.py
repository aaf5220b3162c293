"""Complex roots of integer polynomials with exact multiplicities.

The polynomial is first split into square-free factors (exact integer
arithmetic), so the simultaneous Aberth-Ehrlich iteration only ever sees
simple roots and converges quadratically; multiplicities come from the
square-free splitting instead of from fragile numerical clustering.  A
factor f(z) = g(z^k) whose exponents share a gcd k > 1 is solved as g,
and each root of g is mapped to its k k-th roots.  The starting points
lie on the radii of the Newton polygon of the integer coefficients, at a
fixed angle schedule, so repeated runs are bit-for-bit identical.  A root
is frozen once |p(z)| <= 4*eps*sum|c_k|*|z|^k, a bound computed in the
same Horner pass as p(z), and the iteration stops when every root is
frozen or the largest relative correction of a sweep is at most 1e-12.

The float roots are checked: a non-finite root, or roots that miss the
power sums that Newton's identities give exactly from the coefficients,
raise NumericalError instead of reaching a verdict.  The roots in one
sector of the factor's symmetries are then refined by Newton's method in
integer fixed point and rounded once, and their exact conjugates and
turns give the rest (unless they collide, which raises), so the returned
roots are the floats nearest to the exact roots, real roots have
imaginary part exactly 0.0, and conjugate roots are exact conjugates.
"""

from __future__ import annotations

import cmath
import math

from .graphs import _Frozen
from .intpoly import IntPoly, squarefree_factors

_TOL = 1e-12  # relative Aberth correction at which _aberth stops
_MAX_ITER = 400
_EPS = 2.220446049250313e-16  # float64 machine epsilon
_ANGLE_OFFSET = 0.39  # radians; keeps starting points off symmetry axes
_PREC = 128  # initial fraction bits of _refine
_MAX_PREC = 2048
_STEPS = 8  # Newton steps of _refine per precision
_SETTLED = 93  # bits: 53 of a double and 40 more
_SUM_TOL = 1e-6  # relative miss allowed on a power sum


class NumericalError(RuntimeError):
    """Root iteration failed to converge within the iteration cap, its
    roots failed the finiteness or power-sum check, or their refinement
    failed."""


class RootSet(_Frozen):
    """Roots with multiplicities, plus residual_bound = 2^-52 * max|z|:
    a bound on the distance from each root to the exact root it rounds,
    since rounding each component to nearest moves z by at most
    2^-53 * |z|."""

    def __init__(self, roots: tuple[tuple[complex, int], ...],
                 residual_bound: float):
        self.__dict__.update(roots=roots, residual_bound=residual_bound)

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


def _float_coeffs(coeffs: tuple[int, ...]) -> list[float]:
    scale = max(abs(c) for c in coeffs)
    if scale < 10**280:
        return [float(c) for c in coeffs]
    # beyond float range: normalize by the largest coefficient (same roots;
    # residuals are then relative to that coefficient)
    return [c / scale for c in coeffs]


def _starts(coeffs: tuple[int, ...]) -> list[complex]:
    """Aberth starting points of a polynomial with integer coefficients
    and a nonzero constant term (Bini 1996, Numer. Algorithms 13).

    Each edge i -> j of the upper convex hull of the points
    (i, log|c_i|) over the nonzero coefficients stands for j - i roots of
    modulus about (|c_i| / |c_j|)^(1/(j - i)); that many points go on
    that circle, at angles 2*pi*(t/(j - i) + i/deg) + _ANGLE_OFFSET.
    Logarithms of the integers themselves keep any size in float range.
    """
    deg = len(coeffs) - 1
    hull: list[tuple[int, float]] = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        x3, y3 = i, math.log(abs(c))
        # drop the last vertex while it lies on or below the chord
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x3 - x1) > (y3 - y1) * (x2 - x1):
                break
            hull.pop()
        hull.append((x3, y3))
    z = []
    for (i, yi), (j, yj) in zip(hull, hull[1:]):
        count = j - i
        try:
            radius = math.exp((yi - yj) / count)
        except OverflowError:
            raise NumericalError("root moduli beyond float range") from None
        z += [cmath.rect(radius, 2.0 * math.pi * (t / count + i / deg)
                         + _ANGLE_OFFSET) for t in range(count)]
    return z


def _horner2(pairs: list[tuple[float, float]],
             x: complex) -> tuple[complex, complex, float]:
    """Value and derivative at x of the polynomial given by the pairs
    (c_k, |c_k|) from the leading coefficient down, and the
    backward-error floor 4*eps*sum|c_k|*|x|^k (Higham 2002, sec. 5.1):
    once |p(x)| is at most the floor, x is as converged as float64
    permits.  The floor's terms are non-negative, so it is never NaN at
    a finite x, and it is inf where the sum overflows."""
    ax = abs(x)
    v = 0j
    d = 0j
    f = 0.0
    for c, m in pairs:
        d = d * x + v
        v = v * x + c
        f = f * ax + m
    return v, d, 4.0 * _EPS * f


def _aberth(poly: tuple[int, ...]) -> list[complex]:
    """All roots of a square-free polynomial given by integer
    coefficients, with a nonzero constant term.

    Root k is frozen once |p(z_k)| <= 4*eps*sum|c_j|*|z_k|^j, the floor
    that _horner2 computes in the same pass as p(z_k); the iteration
    stops when every root is frozen or the largest correction of a sweep
    is at most _TOL relative to max(1, |z_k|)."""
    coeffs = _float_coeffs(poly)
    if not (coeffs[0] and coeffs[-1]):  # scaled below the smallest float
        raise NumericalError("coefficients beyond float range")
    deg = len(coeffs) - 1
    if deg == 1:
        return [-coeffs[0] / coeffs[1]]
    z = _starts(poly)
    done = [False] * deg
    pairs = [(c, abs(c)) for c in reversed(coeffs)]
    worst = float("inf")
    for _ in range(_MAX_ITER):
        worst = 0.0
        for k in range(deg):
            if done[k]:
                continue
            zk = z[k]
            val, der, floor = _horner2(pairs, zk)
            if abs(val) <= floor:
                done[k] = True
                continue
            if der == 0:
                z[k] = zk * (1.0 + 1e-6) + 1e-6
                worst = float("inf")
                continue
            w = val / der
            s = 0j
            try:
                for zj in z[:k]:
                    s += 1.0 / (zk - zj)
                for zj in z[k + 1:]:
                    s += 1.0 / (zk - zj)
            except ZeroDivisionError:  # a coincident iterate counts at _TOL
                s = 0j
                for zj in z[:k] + z[k + 1:]:
                    s += 1.0 / ((zk - zj) or _TOL)
            denom = 1.0 - w * s
            step = w if denom == 0 else w / denom
            z[k] = zk - step
            rel = abs(step) / max(1.0, abs(z[k]))
            if rel > worst:
                worst = rel
        if worst <= _TOL or all(done):
            return z
    raise NumericalError(
        f"Aberth iteration did not reach tol={_TOL} within {_MAX_ITER} "
        f"sweeps (degree {deg}, last correction {worst:.3e})")


def _snapped(roots: list[complex]) -> list[complex]:
    """The roots of a polynomial with real coefficients, with those taken
    as real put on the axis.  Non-real roots come in conjugate pairs, so
    the root nearest to the conjugate of a non-real root is its partner,
    unless the iterates are too rough to tell the two apart; a real root
    is its own nearest, and so is every root with imaginary part 0.0."""
    out = []
    for i, z in enumerate(roots):
        reach, c = 2.0 * abs(z.imag), z.conjugate()
        real = not any(abs(w - c) < reach
                       for j, w in enumerate(roots) if j != i)
        out.append(complex(z.real, 0.0) if real else z)
    return out


def _kth_roots(w: complex, k: int) -> list[complex]:
    """Starting points for the k solutions of z^k = w != 0.  For real w
    (imaginary part 0.0) those at angles that are multiples of pi/2 are
    put exactly on the axes, which _refine keeps them on."""
    r = abs(w) ** (1.0 / k)
    if w.imag:
        phase = cmath.phase(w)
        return [cmath.rect(r, (phase + 2.0 * math.pi * t) / k)
                for t in range(k)]
    axes = ((r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r))
    odd = w.real < 0  # the angles are pi*a/k with a = 2t + odd
    return [complex(*axes[2 * a // k % 4]) if not 2 * a % k
            else cmath.rect(r, math.pi * a / k)
            for a in range(odd, 2 * k, 2)]


def _refine(g: tuple[int, ...], k: int, z: complex) -> complex:
    """The root of f(z) = g(z^k) near z, rounded once to the nearest
    complex float.

    Newton's method, z <- z - f(z)/f'(z) = z (1 - g(u) / (k u g'(u)))
    with u = z^k, runs in fixed-point complex arithmetic on Python ints
    with _PREC fraction bits (more when |u| < 1), doubling them up to
    _MAX_PREC, until a step is below 2^-_SETTLED of |z|: 40 bits beyond
    a double, so both components round correctly unless the root lies
    that close to a rounding boundary.  Exact zero components stay zero,
    so real starting points give real roots, and the imaginary ones that
    _kth_roots puts on the axis stay there.  Raises NumericalError when
    the iteration wanders off or does not settle.
    """
    if not z:
        raise NumericalError("Newton refinement cannot start at 0")
    prec = _PREC
    s = prec + max(0, math.ceil(-k * math.log2(abs(z))))
    x, y = (_fixed(c, s) for c in (z.real, z.imag))
    while True:
        for _ in range(_STEPS):
            ux, uy, px, py, e = x, y, x, y, k - 1  # u = z^k by squaring
            while e:
                if e & 1:
                    ux, uy = (ux * px - uy * py) >> s, (ux * py + uy * px) >> s
                e >>= 1
                if e:
                    px, py = (px * px - py * py) >> s, (px * py) >> (s - 1)
            vx, vy, dx, dy = g[-1] << s, 0, 0, 0  # g(u) and g'(u), Horner
            for c in g[-2::-1]:
                dx, dy = (((dx * ux - dy * uy) >> s) + vx,
                          ((dx * uy + dy * ux) >> s) + vy)
                vx, vy = (((vx * ux - vy * uy) >> s) + (c << s),
                          (vx * uy + vy * ux) >> s)
            qx = k * ((ux * dx - uy * dy) >> s)  # k u g'(u)
            qy = k * ((ux * dy + uy * dx) >> s)
            nx, ny = (x * vx - y * vy) >> s, (x * vy + y * vx) >> s  # z g(u)
            norm = qx * qx + qy * qy
            if not norm:
                raise NumericalError(
                    f"Newton refinement hit a critical point near {z!r}")
            sx = ((nx * qx + ny * qy) << s) // norm
            sy = ((ny * qx - nx * qy) << s) // norm
            size = abs(x) + abs(y)
            if abs(sx) + abs(sy) > size:
                raise NumericalError(
                    f"Newton refinement left the root near {z!r}")
            x, y = x - sx, y - sy
            if (abs(sx) + abs(sy)) << _SETTLED <= size:
                return complex(x / (1 << s), y / (1 << s))
        if prec >= _MAX_PREC:
            raise NumericalError(
                f"Newton refinement of the root near {z!r} did not settle "
                f"at {_MAX_PREC} bits")
        x, y, s, prec = x << prec, y << prec, s + prec, 2 * prec


def _fixed(x: float, s: int) -> int:
    """x * 2^s rounded down to an integer, exactly."""
    num, den = x.as_integer_ratio()
    return (num << s) // den


def _factor_roots(coeffs: tuple[int, ...]) -> list[complex]:
    """Float roots of a square-free factor with a nonzero constant term;
    a factor g(z^k) is solved as g, then mapped to k-th roots.  Roots
    taken as real (_snapped) have imaginary part exactly 0.0."""
    k = math.gcd(*(i for i, c in enumerate(coeffs) if c))
    ws = _aberth(coeffs[::k])
    bad = sum(not cmath.isfinite(w) for w in ws)
    if bad:
        raise NumericalError(
            f"{bad * k} of {len(coeffs) - 1} roots are not finite")
    ws = _snapped(ws)
    if k == 1:
        return ws
    return [z for w in ws for z in _kth_roots(w, k)]


def _refined(coeffs: tuple[int, ...], roots: list[complex]) -> list[complex]:
    """_factor_roots' roots of a square-free factor f, refined by _refine.

    f has real coefficients, f(-z) = f(z) when its exponent gcd k is
    even and f(iz) = f(z) when 4 divides k, and rounding commutes with
    conjugation and these turns.  So only the roots with an angle in
    [0, pi/turns] are refined, and the others are their exact images.
    NumericalError is raised when the images are not deg f distinct
    roots (iterates astride a sector edge, or two roots refined to one).
    """
    k = math.gcd(*(i for i, c in enumerate(coeffs) if c))
    g, turns = coeffs[::k], 4 if k % 4 == 0 else 2 if k % 2 == 0 else 1
    images = set()
    for z in roots:
        if z.imag < 0 or (turns > 1 and z.real < 0) or (
                turns == 4 and (not z.real or z.imag > z.real * (1 + 2**-40))):
            continue
        for p in (r := _refine(g, k, z), r.conjugate()):
            for _ in range(turns):
                images.add(complex(p.real + 0.0, p.imag + 0.0))  # no -0.0
                p = complex(-p.imag, p.real) if turns == 4 else -p
    if len(images) != len(roots):
        raise NumericalError(
            f"roots of a degree-{len(roots)} factor refine to "
            f"{len(images)} distinct points")
    return list(images)


def _check_power_sums(p: IntPoly, roots) -> None:
    """Raise NumericalError unless the (root, multiplicity) pairs meet
    the power sums sum m*z^j, j = 1, 2, that Newton's identities give
    exactly from the coefficients of p, and sum m*z^-j too when p(0) != 0,
    each within _SUM_TOL * (1 + sum m*|z|^j)."""
    c = p.coeffs
    sides = [(c[::-1], 1)]  # leading coefficient first
    if c[0]:
        sides.append((c, -1))  # the reversed polynomial has roots 1/z
    for a, sign in sides:
        a0, a1, a2 = a[0], a[1], a[2] if len(a) > 2 else 0
        try:
            exact = (-a1 / a0, (a1 * a1 - 2 * a0 * a2) / (a0 * a0))
            for j, want in enumerate(exact, 1):
                power = sign * j
                got = sum(m * z ** power for z, m in roots)
                scale = sum(m * abs(z) ** power for z, m in roots)
                if not abs(got - want) <= _SUM_TOL * (1.0 + scale):
                    raise NumericalError(
                        f"roots of the degree-{p.degree} polynomial miss "
                        f"the power sum of z^{power}: {got:.6g} against "
                        f"{want:.6g}")
        except (OverflowError, ZeroDivisionError) as err:
            raise NumericalError(
                f"power sums of the degree-{p.degree} polynomial out of "
                f"float range: {err}") from None


def find_roots(p: IntPoly) -> RootSet:
    """All complex roots of a nonzero integer polynomial.

    Returns a RootSet whose multiplicities sum to deg(p), sorted by real
    then imaginary part; each root is refined on its square-free factor
    and rounded once (see _refined), and roots are never merged.  Raises
    NumericalError on non-convergence, on a non-finite root, on roots
    that miss the exact power sums (see _check_power_sums) and when
    Newton refinement fails (see _refine).
    """
    if not p:
        raise ValueError("zero polynomial has every point as a root")
    if p.degree == 0:
        return RootSet((), 0.0)
    head, factors = [], []
    for f, m in squarefree_factors(p):
        f = f.coeffs
        if not f[0]:  # z times the rest of the factor of multiplicity m
            head, f = [(0j, m)], f[1:]
        if len(f) > 1:
            factors.append((f, m, _factor_roots(f)))
    _check_power_sums(p, head + [(z, m) for _, m, zs in factors for z in zs])
    roots = sorted(head + [(z, m) for f, m, zs in factors
                           for z in _refined(f, zs)],
                   key=lambda rm: (rm[0].real, rm[0].imag))
    bound = 2.0 ** -52 * max((abs(z) for z, _ in roots), default=0.0)
    return RootSet(tuple(roots), bound)
