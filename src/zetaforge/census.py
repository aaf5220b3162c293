"""Census of closed geodesics and prime classes from dart-matrix traces.

Walks are sequences of darts: an undirected edge contributes two mutually
inverse darts, a loop two inverse darts at the same node, an arrow a
single dart with no inverse.  A closed walk of length m is backtrackless
and tailless when no dart is followed (cyclically, wrap-around included)
by its own inverse.  Closed-walk counts N_m are traces of powers of the
dart transition matrix, stepped as packed columns of big ints through
one sum per node.  Prime classes are grouped under cyclic rotation only,
so a cycle and its reversal are distinct classes.

A prime class of length m holds m distinct rotations of a primitive
closed walk, and each closed walk is a power of exactly one primitive
walk, so N_m = sum over d | m of d * pi(d) (Hashimoto; Kotani and
Sunada), and pi(m) is the Moebius inversion (1/m) sum over d | m of
mu(m/d) * N_d of the traces.  Counts whose inversion is not a
nonnegative integer raise CensusError.  No walk or class is listed.

The traces share no code with the determinant machinery, so the
log-derivative series of zeta^-1 is an independent check on them: the
primes verb compares the two on every call.  The tests also check the
counts against an explicit Lyndon-word search (tests/lyndon.py), whose
cost grows exponentially with the horizon.  The traces cost only a
horizon of packed steps, so any horizon of at least 1 is counted; only
the command line bounds its -L (cli.HORIZON_LIMIT), to keep the float
ratios in range.

pnt_ratios sets the counts against R_G, which the primes verb takes from
intpoly.least_positive_root: zeta^-1 = det(I - zT) for the dart matrix
T >= 0, so R_G = 1/rho(T) is the least positive root of zeta^-1
(Perron-Frobenius), and R_G <= 1 once there is a prime, since then
rho(T) >= 1.
"""

from __future__ import annotations

from math import gcd

from .graphs import MixedGraph, _Frozen, _is_int
from .intpoly import SeriesError, mobius_invert


class CensusError(RuntimeError):
    """Inconsistent census state or unusable request."""


class Dart(_Frozen):
    def __init__(self, id: int, tail: int, head: int, inverse: int | None):
        self.__dict__.update(id=id, tail=tail, head=head, inverse=inverse)


class PrimeCensus(_Frozen):
    """closed_counts[m - 1] counts the closed walks of length m and
    prime_counts[m - 1] the primitive rotation classes; delta is the gcd
    of the lengths with primes, 0 if none."""

    def __init__(self, horizon: int, closed_counts: list[int],
                 prime_counts: list[int], delta: int):
        self.__dict__.update(horizon=horizon, closed_counts=closed_counts,
                             prime_counts=prime_counts, delta=delta)


def build_darts(g: MixedGraph) -> list[Dart]:
    """Two mutually inverse darts per edge (a loop's both at its node),
    then one dart with no inverse per arrow, never a loop."""
    darts: list[Dart] = []
    for i, j in g.edges:
        a = len(darts)
        darts.append(Dart(a, i, j, a + 1))
        darts.append(Dart(a + 1, j, i, a))
    for i, j in g.arrows:
        darts.append(Dart(len(darts), i, j, None))
    return darts


def count_closed_paths(g: MixedGraph, horizon: int) -> list[int]:
    """Closed backtrackless tailless walk counts N_1..N_horizon, start
    position distinguished.  Exact integers via transition-matrix traces.

    Column f of T^m is one int with a slot of w bits per start dart d,
    holding the number of walks of m darts from d to f.  Dart e precedes
    f when it enters f's tail and is not f's inverse (Hashimoto 1989): a
    step sums the columns of the darts entering each node, and f's new
    column is its tail's sum less its inverse's column, if any.  The m - 1
    darts after d are each one of at most s successors, so no slot of a
    sum exceeds s**(m - 1); w = bits of s**(horizon - 1) (at least 1)
    holds every slot, and taking out a column that a sum holds never
    borrows.  N_m is the sum over f of slot f of column f.
    """
    if not _is_int(horizon):
        raise TypeError(f"horizon {horizon!r} is not an int")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    darts = build_darts(g)
    entering: list[list[int]] = [[] for _ in range(g.node_count)]
    leaving = [0] * g.node_count
    for d in darts:
        entering[d.head].append(d.id)
        leaving[d.tail] += 1
    top = max((leaving[d.head] - (d.inverse is not None) for d in darts),
              default=0)
    w = max(1, (top ** (horizon - 1)).bit_length())
    mask = (1 << w) - 1
    links = [(d.tail, d.inverse) for d in darts]
    cols = [1 << w * f for f in range(len(darts))]
    counts = []
    for _ in range(horizon):
        sums = [sum([cols[e] for e in into]) for into in entering]
        cols = [sums[t] if i is None else sums[t] - cols[i] for t, i in links]
        counts.append(sum(c >> w * f & mask for f, c in enumerate(cols)))
    return counts


def enumerate_primes(g: MixedGraph, horizon: int) -> PrimeCensus:
    """Count primitive closed-walk classes per length by Moebius
    inversion of the closed-walk traces.

    Classes are rotations only; orientation reversal is not identified.
    A CensusError reports traces that no class counts give.
    """
    closed = count_closed_paths(g, horizon)
    try:
        prime_counts = mobius_invert(closed)
    except SeriesError as err:
        raise CensusError(f"closed-walk count mismatch: {err}") from None
    delta = gcd(*(m for m, c in enumerate(prime_counts, 1) if c))
    return PrimeCensus(horizon, closed, prime_counts, delta)


def pnt_ratios(census: PrimeCensus, r_g: float) -> dict[int, float]:
    """Diagnostic ratios pi(m) * m * R^m / delta for lengths divisible by
    delta; the prime-count asymptotics drive these toward 1 on expanders."""
    if census.delta == 0:
        raise CensusError("graph has no primes within the horizon")
    out = {}
    for m in range(1, census.horizon + 1):
        if m % census.delta == 0:
            out[m] = (census.prime_counts[m - 1] * m * r_g ** m
                      / census.delta)
    return out
