"""Seeded inputs for the four benchmark workloads.

Every graph is generated here, written as a JSON graph document and
handed to the command line with ``--graph``; the catalog workload gets a
seeded permutation of the bundled catalog through ``--catalog``.  The
program therefore sees only generated files, never a seed or a diagram
spec.  The same (workload, seed) always yields the same files and the
same call list.

Why these four: each puts its cost in a different module, so no single
workload can show every gain (see ``WHY``).
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import NamedTuple

WHY = {
    "catalog": "catalog-verify over all 41 records: per-call overhead, "
               "small frontier determinants, dimer closed form, duplicated "
               "zeta/analysis work",
    "banded": "cycles n~100-400 and loop-decorated D20-D40 through zeta, rh, "
              "spectrum, export-plot: frontier sweep, high-degree Aberth, "
              "xi check, spectrum",
    "dense": "random mixed multigraphs (3n edges, n arrows), n in "
             "{16,24,32}, through zeta and rh: Bareiss over Z[z] and the "
             "Yun square-free split",
    "census": "primes at horizon 8-9 on loop-decorated A1/A2/D4/D5/E6 and a "
              "dimer: brute-force geodesic census and its transition-matrix "
              "cross-check",
}

# Time of one pass over the call list, with the benchmark's own per-call
# work, at the nominal speed of run.py; measured at the commit that
# introduced the benchmark.  A run makes seconds // NOMINAL_PASS_S passes,
# so that every run of a workload takes the same number of samples and its
# percentiles stay comparable.
NOMINAL_PASS_S = {"catalog": 0.19, "banded": 6.2, "dense": 11.0,
                  "census": 6.0}

# Cycle lengths get a seeded jitter of at most this many nodes.
_JITTER = 1


class Call(NamedTuple):
    verb: str
    argv: tuple[str, ...]
    graph: str | None    # key into Inputs.graphs; None for catalog-verify


class Inputs(NamedTuple):
    calls: tuple[Call, ...]
    graphs: dict[str, dict]     # name -> graph document (normalized)
    catalog: list[dict] | None  # permuted catalog records, if used
    size_range: str


def cycle(n: int) -> dict:
    return {"nodes": n, "edges": [[i, (i + 1) % n] for i in range(n)],
            "arrows": []}


def cycle3_with_loops() -> dict:
    doc = cycle(3)
    doc["edges"] += [[v, v] for v in range(3) for _ in range(2)]
    return doc


def a1_with_loops() -> dict:
    """Affine A1: a doubled edge, with two loops per node."""
    return {"nodes": 2, "edges": [[0, 1], [0, 1]] + [[0, 0], [1, 1]] * 2,
            "arrows": []}


def d_with_loops(index: int, mirrored: bool) -> dict:
    """Affine D diagram with index + 1 nodes and two loops per node;
    mirrored reverses the node labels (an isomorphic graph)."""
    n = index + 1
    edges = [(0, 2), (1, 2)]
    edges += [(k, k + 1) for k in range(2, index - 2)]
    edges += [(index - 2, index - 1), (index - 2, index)]
    edges += [(v, v) for v in range(n) for _ in range(2)]
    if mirrored:
        edges = [(index - i, index - j) for i, j in edges]
    return {"nodes": n, "edges": [list(e) for e in edges], "arrows": []}


def e6_with_loops() -> dict:
    """Affine E6: three arms of two nodes around a centre, two loops per
    node."""
    edges = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
    edges += [(v, v) for v in range(7) for _ in range(2)]
    return {"nodes": 7, "edges": [list(e) for e in edges], "arrows": []}


def dimer(valencies: list[int]) -> dict:
    edges = [[2 * i, 2 * i + 1] for i, r in enumerate(valencies)
             for _ in range(r)]
    return {"nodes": 2 * len(valencies), "edges": edges, "arrows": []}


def shuffled(doc: dict, rng: random.Random) -> dict:
    """The same graph with its edge and arrow lists in a random order.

    Node labels are kept: the determinant and the census cost depend on
    the node order by up to a factor of two, which would swamp any change
    under test."""
    edges, arrows = list(doc["edges"]), list(doc["arrows"])
    rng.shuffle(edges)
    rng.shuffle(arrows)
    return {"nodes": doc["nodes"], "edges": edges, "arrows": arrows}


def random_mixed(n: int, rng: random.Random) -> dict:
    """3n random edges (loops and parallels allowed) and n random arrows,
    already normalized: no arrow self-loops and no reciprocal arrow
    pairs, so normalization leaves the document unchanged."""
    edges = [[rng.randrange(n), rng.randrange(n)] for _ in range(3 * n)]
    arrows: list[list[int]] = []
    seen = set()
    while len(arrows) < n:
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j or (j, i) in seen:
            continue
        seen.add((i, j))
        arrows.append([i, j])
    return {"nodes": n, "edges": edges, "arrows": arrows}


def _fmt(verb):
    return () if verb == "export-plot" else ("--format", "json")


def build(workload: str, seed: int, workdir: Path,
          catalog_path: Path) -> Inputs:
    """Generate the inputs of one workload into workdir."""
    rng = random.Random(f"{workload}:{seed}")
    graphs: dict[str, dict] = {}
    plan: list[tuple[str, str, tuple[str, ...]]] = []  # verb, graph, extra
    catalog = None
    if workload == "catalog":
        catalog = json.loads(catalog_path.read_text(encoding="utf-8"))
        rng.shuffle(catalog)
        path = workdir / "catalog.json"
        path.write_text(json.dumps(catalog), encoding="utf-8")
        calls = (Call("catalog-verify", ("catalog-verify", "--catalog",
                                         str(path), "--format", "json"),
                      None),)
        return Inputs(calls, graphs, catalog,
                      "41 records, 82 graphs of 1-8 nodes")
    if workload == "banded":
        full = ("zeta", "rh", "spectrum", "export-plot")
        for base, verbs in ((100, full), (200, full[:3]), (300, full[:1]),
                            (400, full[:1])):
            n = base + rng.randint(-_JITTER, _JITTER)
            graphs[f"cycle{n}"] = cycle(n)
            plan += [(v, f"cycle{n}", ()) for v in verbs]
        # 21 calls, as many below the 0.1-0.2 s calls as above them, so
        # that the median latency falls among several calls, not on one
        for index in (20, 30, 40):
            name = f"D{index}loops"
            graphs[name] = d_with_loops(index, rng.random() < 0.5)
            plan += [(v, name, ()) for v in full]
        size_range = "cycles n=99-401, D_n with loops n=20-40"
    elif workload == "dense":
        # One random graph costs up to twice another of the same size, so
        # drawing new graphs per seed would swamp any change under test:
        # the family is drawn once, and the seed only shuffles its files.
        family = random.Random("dense-family")
        # Five graphs at n=16 and one each at 24 and 32 put both the median
        # and the tail latency among the samples of the n=16 rh calls.
        for n, count in ((16, 5), (24, 1), (32, 1)):
            for k in range(count):
                name = f"mixed{n}_{k}"
                graphs[name] = random_mixed(n, family)
                plan += [(v, name, ()) for v in ("zeta", "rh")]
        size_range = "n=16-32 nodes, 3n edges, n arrows"
    elif workload == "census":
        for name, doc, horizon in (("A1loops", a1_with_loops(), 8),
                                   ("A2loops", cycle3_with_loops(), 8),
                                   ("D4loops", d_with_loops(4, False), 8),
                                   ("D5loops", d_with_loops(5, False), 8),
                                   ("E6loops", e6_with_loops(), 8),
                                   ("dimer345", dimer([3, 4, 5]), 9)):
            graphs[name] = doc
            plan.append(("primes", name, ("-L", str(horizon))))
        size_range = "2-7 nodes, horizon 8-9"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(plan)
    for name, doc in graphs.items():
        (workdir / f"{name}.json").write_text(
            json.dumps(shuffled(doc, rng)), encoding="utf-8")
    calls = tuple(
        Call(verb, (verb, "--graph", str(workdir / f"{name}.json"),
                    *extra, *_fmt(verb)), name)
        for verb, name, extra in plan)
    return Inputs(calls, graphs, catalog, size_range)
