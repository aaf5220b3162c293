"""Finite partially directed multigraphs and their walk matrices.

A graph mixes undirected edges (loops allowed, multiplicity via repeated
pairs) with directed arrows; it stores an arrow self-loop as a loop.  The
normalization convention (normalize, applied by the graph-file reader)
replaces every mutually reciprocal arrow pair by a single edge, so that
arrows carry only genuinely one-way adjacency.  A graph is immutable and
hashable, like every value class of the package; its walk matrices are
sparse, one plain dict of the nonzero entries per row.
"""

from __future__ import annotations

from collections import Counter, namedtuple


class GraphFormatError(ValueError):
    """A graph document is malformed."""


def _is_int(x) -> bool:
    """Whether x is an int and not a bool: the package's one integer test."""
    return isinstance(x, int) and not isinstance(x, bool)


class _Frozen:
    """Base of the package's value classes.  A subclass's __init__ puts
    its fields, in order, into the instance dict; two instances of one
    class are equal when their fields are, the repr is the keyword call
    that builds the instance, and the hash is that of the fields (so
    unhashable when a field is).  Fields cannot be assigned or deleted.
    IntPoly holds its field in a slot and brings its own methods."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _canonical(pairs, n: int, kind: str):
    """Yield the pairs as tuples, each edge as (min, max); raises
    GraphFormatError on a pair that is not a list or tuple of two node
    indices in [0, n)."""
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise GraphFormatError(
                f"{kind} {pair!r} is not a pair of node indices")
        i, j = pair
        for k in (i, j):
            if not _is_int(k):
                raise GraphFormatError(f"node index {k!r} is not an integer")
            if not 0 <= k < n:
                raise GraphFormatError(f"node index {k!r} outside [0, {n})")
        yield (j, i) if kind == "edge" and j < i else (i, j)


class MixedGraph(_Frozen):
    def __init__(self, node_count: int, edges=(), arrows=()):
        if not _is_int(node_count) or node_count < 1:
            raise GraphFormatError("node_count must be a positive integer")
        edges = list(_canonical(edges, node_count, "edge"))
        arrows = list(_canonical(arrows, node_count, "arrow"))
        self.__dict__.update(  # each arrow self-loop is stored as a loop
            node_count=node_count,
            edges=tuple(sorted(edges + [a for a in arrows if a[0] == a[1]])),
            arrows=tuple(sorted(a for a in arrows if a[0] != a[1])))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_directed_only(self) -> bool:
        return not self.edges

    @property
    def is_undirected(self) -> bool:
        return not self.arrows

    @classmethod
    def from_dict(cls, doc) -> "MixedGraph":
        """The normalized graph of a graph-file document."""
        if not isinstance(doc, dict):
            raise GraphFormatError("graph document must be an object")
        try:
            nodes = doc["nodes"]
        except KeyError:
            raise GraphFormatError("missing 'nodes' field") from None
        edges = doc.get("edges", [])
        arrows = doc.get("arrows", [])
        for name, pairs in (("edges", edges), ("arrows", arrows)):
            if not isinstance(pairs, list):
                raise GraphFormatError(f"'{name}' must be a list of [i, j] pairs")
        return normalize(cls(nodes, edges, arrows))

    def to_dict(self) -> dict:
        return {"nodes": self.node_count,
                "edges": [list(p) for p in self.edges],
                "arrows": [list(p) for p in self.arrows]}


class MatrixBundle(_Frozen):
    """Walk matrices of a graph.

    adjacency[i][j] counts length-one walks i->j along edges or arrows,
    with diagonal entries twice the loop count; arrows[i][j] counts arrows
    only, so its diagonal is empty (no graph holds an arrow self-loop).
    Each row is a plain dict of its nonzero entries, so an entry off its
    support is absent: read it with row.get(j, 0).  The rows determine
    the degrees: sum(adjacency[i].values()) - sum(arrows[i].values()) is
    node i's undirected degree, loops counted twice.
    """

    def __init__(self, adjacency: tuple[dict, ...], arrows: tuple[dict, ...]):
        self.__dict__.update(adjacency=adjacency, arrows=arrows)


DegreeProfile = namedtuple("DegreeProfile",
                           "min_degree max_degree is_regular")


def _fold(n: int, edges: list, pairs) -> MixedGraph:
    """The graph of n nodes with these edges and, per (i, j, c, c') in
    pairs, c arrows i->j and c' arrows j->i folded as normalize says."""
    arrows = []
    for i, j, out, back in pairs:
        paired = min(out, back)
        edges += [(i, j)] * paired
        arrows += [(i, j)] * (out - paired) + [(j, i)] * (back - paired)
    return MixedGraph(n, edges, arrows)


def normalize(g: MixedGraph) -> MixedGraph:
    """Fold reciprocal arrow pairs into edges: c arrows i->j and c' arrows
    j->i give min(c, c') edges, and each direction keeps its surplus as
    arrows.  Edges are untouched, and normalize is idempotent."""
    counts = Counter(g.arrows)
    return _fold(g.node_count, list(g.edges), (
        (i, j, c, counts[j, i]) if i < j else (j, i, 0, c)
        for (i, j), c in counts.items() if i < j or (j, i) not in counts))


def matrices(g: MixedGraph) -> MatrixBundle:
    """Extract the walk matrices."""
    n = g.node_count
    adj = [{} for _ in range(n)]
    arr = [{} for _ in range(n)]
    for i, j in g.edges:
        adj[i][j] = adj[i].get(j, 0) + 1  # a loop adds 2 on the diagonal
        adj[j][i] = adj[j].get(i, 0) + 1
    for i, j in g.arrows:
        adj[i][j] = adj[i].get(j, 0) + 1
        arr[i][j] = arr[i].get(j, 0) + 1
    return MatrixBundle(tuple(adj), tuple(arr))


def total_degrees(g: MixedGraph) -> list[int]:
    """Undirected degree (loops twice) plus arrow in- and out-degree."""
    deg = [0] * g.node_count
    for i, j in g.edges + g.arrows:  # a loop (i, i) adds 2
        deg[i] += 1
        deg[j] += 1
    return deg


def degree_profile(g: MixedGraph) -> DegreeProfile:
    deg = total_degrees(g)
    lo, hi = min(deg), max(deg)
    return DegreeProfile(lo, hi, lo == hi)


def _neighbours(g: MixedGraph) -> list[set[int]]:
    nbr: list[set[int]] = [set() for _ in range(g.node_count)]
    for i, j in g.edges + g.arrows:  # a loop makes i its own neighbour
        nbr[i].add(j)
        nbr[j].add(i)
    return nbr


def bipartition(g: MixedGraph) -> tuple[int, ...] | None:
    """Two-coloring of the undirected support (arrows count as adjacency),
    or None if an odd cycle or a loop makes one impossible.  A looped node
    is its own neighbour, so the traversal finds it as a color clash."""
    nbr = _neighbours(g)
    color = [-1] * g.node_count
    for start in range(g.node_count):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in nbr[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return tuple(color)


def is_connected(g: MixedGraph) -> bool:
    nbr = _neighbours(g)
    seen = {0}
    queue = [0]
    while queue:
        v = queue.pop()
        for w in nbr[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.node_count
