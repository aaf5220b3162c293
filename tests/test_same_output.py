"""Every CLI call of a fixed grid prints the same bytes as when the
digests in same_output.sha256 were made.

The grid: zeta, spectrum and primes -L 6 in three formats, rh in two and
export-plot, on A0-A44, A60, A99, A100, A0-A30 with loops, D4-D19 and
E6-E8 with and without loops, seven dimers and 60 seeded random mixed
graphs (with arrow self-loops and reciprocal arrows, so that normalize
folds them); then catalog-verify in text and json.  Each call hashes its
verb, exit code, stdout and stderr (the graph directory replaced), and
same_output.sha256 holds the first 16 hex digits of each digest, one
line per call in grid order.

Regenerate the file only for an intended output change, by running this
module as a script from the repository root:

    PYTHONPATH=src python tests/test_same_output.py > tests/same_output.sha256

and list every changed call in CHANGES.md, as test_single_pass asks.
"""

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from zetaforge import cli
from zetaforge.catalog import ade_graph, dimer_graph
from zetaforge.graphs import MixedGraph

DIGEST_FILE = os.path.join(os.path.dirname(__file__), "same_output.sha256")

VERBS = ([[verb, "--format", fmt] for verb in ("zeta", "spectrum")
          for fmt in ("text", "json", "csv")]
         + [["primes", "-L", "6", "--format", fmt]
            for fmt in ("text", "json", "csv")]
         + [["rh", "--format", fmt] for fmt in ("text", "json")]
         + [["export-plot"]])

DIMERS = ("3", "3,4", "4,4", "3,3,3", "3,4,5", "3,3,3,5", "4,4,4,4")


def random_graph(rng):
    """A mixed multigraph of 1-7 nodes whose arrows include self-loops
    and reciprocal pairs, in shuffled order."""
    n = rng.randint(1, 7)
    edges = [[rng.randrange(n), rng.randrange(n)]
             for _ in range(rng.randint(0, 2 * n))]
    arrows = [[rng.randrange(n), rng.randrange(n)]
              for _ in range(rng.randint(0, n))]
    for _ in range(rng.randint(0, n)):
        i, j = rng.randrange(n), rng.randrange(n)
        arrows += [[i, j], [j, i]] * rng.randint(1, 2)
    rng.shuffle(arrows)
    return {"nodes": n, "edges": edges, "arrows": arrows}


def grid_graphs():
    """(options, graph, data) for the graphs of the grid, in order: the
    options that select the graph on the command line, the graph, and
    for a seeded random graph the dict that sources writes to the file
    its options name (None for the others)."""
    out = [(["--ade", f"A{k}"], ade_graph("A", k), None)
           for k in (*range(45), 60, 99, 100)]
    out += [(["--ade", f"A{k}", "--loops"],
             ade_graph("A", k, with_loops=True), None) for k in range(31)]
    for family, index in ([("D", k) for k in range(4, 20)]
                          + [("E", k) for k in (6, 7, 8)]):
        for loops in (False, True):
            out.append((["--ade", f"{family}{index}"] + ["--loops"] * loops,
                        ade_graph(family, index, with_loops=loops), None))
    out += [(["--dimer", spec],
             dimer_graph([int(v) for v in spec.split(",")]), None)
            for spec in DIMERS]
    rng = random.Random(26)
    for k in range(60):
        data = random_graph(rng)
        out.append((["--graph", f"mixed{k:02d}.json"],
                    MixedGraph.from_dict(data), data))
    return out


def sources(directory):
    """The graph options of the grid, in order; the random graphs are
    written to directory."""
    out = []
    for options, _, data in grid_graphs():
        if data is not None:
            path = os.path.join(directory, options[1])
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            options = [options[0], path]
        out.append(options)
    return out


def grid(directory):
    calls = [verb + source for source in sources(directory)
             for verb in VERBS]
    return calls + [["catalog-verify", "--format", fmt]
                    for fmt in ("text", "json")]


def digest(argv, directory):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    text = "\0".join([argv[0], str(code), out.getvalue(),
                      err.getvalue().replace(directory, "<graphs>")])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_cli_output_unchanged(tmp_path):
    directory = str(tmp_path)
    calls = grid(directory)
    with open(DIGEST_FILE, encoding="ascii") as fh:
        expected = fh.read().split()
    assert len(expected) == len(calls) == 2210
    changed = [argv for argv, want in zip(calls, expected)
               if digest(argv, directory) != want]
    shown = [" ".join(argv).replace(directory, "<graphs>")
             for argv in changed[:10]]
    assert not changed, f"{len(changed)} calls changed output: {shown}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        digests = [digest(argv, directory) for argv in grid(directory)]
    sys.stdout.write("".join(d + "\n" for d in digests))
