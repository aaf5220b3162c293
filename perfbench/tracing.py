"""Spans around the calls into each layer of zetaforge.

While a Tracer is installed, every public function named in TRACED is
replaced, in every zetaforge module that refers to it, by a wrapper that
records one span: name, start, end, parent span, call id and the graph it
worked on.  The package itself is not edited; uninstall() puts the
original functions back.  Spans stay in memory until the run writes them
out.  A span's self time is its duration minus the time of its children.

Names absent from the package (after a refactor) are simply not traced,
and their metrics read 0.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict

LAYERS = ("graphs", "polydet", "intpoly", "rootfind", "zeta", "census",
          "catalog", "cli")

TRACED = frozenset({
    "graphs.matrices", "graphs.normalize", "graphs.degree_profile",
    "graphs.is_connected",
    "polydet.det_poly", "polydet.char_poly",
    "intpoly.squarefree_factors", "intpoly.log_derivative_series",
    "rootfind.find_roots",
    "zeta.zeta_inverse", "zeta.analyze", "zeta.adjacency_spectrum",
    "zeta.is_ramanujan", "zeta.xi_functional_check", "zeta.plot_points",
    "zeta.classify_moduli",
    "census.enumerate_primes", "census.count_closed_paths",
    "census.pnt_ratios",
    "catalog.load_catalog", "catalog.verify_catalog",
    "catalog.dimer_zeta_closed", "catalog.dimer_rh",
    "catalog.quiver_to_graph",
})

# The part of zeta_inverse after its determinant returns: the
# (1 - z^2)^(m - n) multiply or exact division.
PREFACTOR = "intpoly.prefactor"


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "graph",
                 "child_time")

    def __init__(self, name, parent, call, graph):
        self.name = name
        self.parent = parent
        self.call = call
        self.graph = graph
        self.start = self.end = 0.0
        self.child_time = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child_time


def _layer_of(fn):
    """'module.function' of a zetaforge function, else None."""
    if not inspect.isfunction(fn) or not fn.__module__.startswith(
            "zetaforge."):
        return None
    return f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.graph_ids: dict = {}            # MixedGraph -> label
        self.sizes: dict[str, dict] = {}     # label -> size descriptors
        self._patched: list[tuple[object, str, object]] = []
        self._call = None
        self._graph = None

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "zetaforge"
                                      or modname.startswith("zetaforge.")):
                continue
            for attr, fn in list(vars(module).items()):
                name = _layer_of(fn)
                if name not in TRACED:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(name, fn)
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs)
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    # -- recording ----------------------------------------------------------

    def label(self, graph, name=None) -> str:
        """Stable label of a MixedGraph, registering its size descriptors."""
        label = self.graph_ids.get(graph)
        if label is None:
            label = name or f"graph{len(self.graph_ids)}"
            self.graph_ids[graph] = label
            edges, arrows = len(graph.edges), len(graph.arrows)
            self.sizes[label] = {"nodes": graph.node_count, "edges": edges,
                                 "arrows": arrows,
                                 "darts": 2 * edges + arrows}
        return label

    def call(self, call_id, name, graph_label, fn):
        """Run fn() as the root span of one call."""
        self._call, self._graph = call_id, graph_label
        try:
            return self._run(name, fn, (), {})
        finally:
            self._call = self._graph = None

    def _run(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        graph = parent.graph if parent else self._graph
        if args and type(args[0]).__name__ == "MixedGraph":
            graph = self.label(args[0])
        span = Span(name, parent, self._call, graph)
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.child_time += span.duration
        self._observe(span, args, result)
        return result

    def _observe(self, span, args, result):
        """Counts taken at the layer boundary, from results only; a result
        whose shape has changed is skipped, not an error."""
        if span.name.startswith("zeta."):
            self.counts[f"{span.name}_calls"] += 1
        try:
            if span.name == "zeta.zeta_inverse":
                self._prefactor(span)
                size = self.sizes.get(span.graph)
                if size is not None:
                    size["zeta_degree"] = result.degree
                    size["coeff_bits"] = max(abs(c).bit_length()
                                             for c in result.coeffs)
            elif span.name == "intpoly.squarefree_factors":
                for factor, mult in result:
                    self._max("intpoly.max_multiplicity", mult)
                    self._max("intpoly.sqfree_max_degree", factor.degree)
            elif span.name == "rootfind.find_roots":
                self.counts["rootfind.nonfinite_roots"] += sum(
                    m for z, m in result
                    if not (math.isfinite(z.real) and math.isfinite(z.imag)))
            elif span.name == "census.enumerate_primes":
                self.counts["census.prime_classes"] += sum(
                    result.prime_counts)
                self._max("census.darts", self.sizes[span.graph]["darts"])
            elif span.name == "catalog.verify_catalog":
                self._max("catalog.records_ok",
                          sum(1 for row in result.rows if row.ok))
        except (AttributeError, TypeError, ValueError, KeyError):
            pass

    def _max(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def _prefactor(self, span):
        """Split the tail of zeta_inverse after its last det_poly child
        off as its own span."""
        for child in reversed(self.spans):
            if child is span:
                return
            if child.parent is span and child.name == "polydet.det_poly":
                tail = Span(PREFACTOR, span, span.call, span.graph)
                tail.start, tail.end = child.end, span.end
                span.child_time += tail.duration
                self.spans.append(tail)
                return

    # -- reporting ----------------------------------------------------------

    def per_graph(self, scale):
        """label -> size descriptors plus self time per layer, each span's
        time multiplied by scale(span)."""
        rows = {label: dict(size) for label, size in self.sizes.items()}
        for s in self.spans:
            if s.graph in rows:
                key = f"{s.name.split('.', 1)[0]}_self_s"
                rows[s.graph][key] = (rows[s.graph].get(key, 0.0)
                                      + s.self_time * scale(s))
        return rows

    def dump(self):
        """Spans as rows [name, start, end, parent index, call id, graph]."""
        index = {id(s): k for k, s in enumerate(self.spans)}
        return [[s.name, s.start, s.end,
                 index[id(s.parent)] if s.parent is not None else None,
                 s.call, s.graph] for s in self.spans]
