"""Command-line front end.

Verbs: zeta, rh, primes, spectrum (computations on one graph), ade and
dimer (emit generated graphs as JSON), catalog-verify (recompute the
bundled 41-record reference catalog) and export-plot (scatter CSV of
poles and eigenvalues).  Graphs come from a JSON file (--graph), an
affine diagram spec (--ade A2, optionally --loops) or a dimer valency
list (--dimer 3,4).  Each verb returns its text, rendered by _render in
the format asked for, and its exit code; main writes the text once, to
stdout or --out.

Exit codes: 0 success, 1 usage, 2 input parse, 3 numerical failure,
4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .catalog import (ade_graph, dimer_graph, load_catalog, parse_ade_spec,
                      verify_catalog)
from .census import CensusError, enumerate_primes, pnt_ratios
from .graphs import GraphFormatError, MixedGraph
from .intpoly import least_positive_root, log_derivative_series
from .rootfind import NumericalError
from .zeta import (_FLAGS, adjacency_spectrum, analyze, plot_points,
                   zeta_inverse)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

# the one bound on the census horizon -L: pi(m) m <= N_m < darts^m and
# R_G >= 1/s > 1/darts (s the most successors of a dart), so below 10^10
# darts and for m <= 30 a pnt ratio's factors stay below 10^300 and R_G^m
# above 10^-300, and its float product neither overflows nor underflows
HORIZON_LIMIT = 30


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@cache
def _build_parser() -> _Parser:
    """The parser, built on the first call and shared by every later
    main() call in the process; parse_args keeps no state between calls."""
    parser = _Parser(prog="zetaforge",
                     description="Zeta functions of partially directed "
                                 "multigraphs")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_graph_options(p, run, horizon=False,
                          formats=("text", "json", "csv")):
        p.set_defaults(run=run)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--graph", metavar="PATH",
                         help="JSON graph file with nodes/edges/arrows")
        src.add_argument("--ade", metavar="SPEC",
                         help="affine diagram spec, e.g. A2, D4, E6")
        src.add_argument("--dimer", metavar="LIST",
                         help="dimer valency list, e.g. 3,4")
        p.add_argument("--loops", action="store_true",
                       help="decorate an --ade diagram with two loops "
                            "per node")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="PATH",
                       help="write output to a file instead of stdout")
        if horizon:
            p.add_argument("-L", dest="horizon", type=int, default=6,
                           help=f"series horizon (1..{HORIZON_LIMIT})")

    add_graph_options(sub.add_parser("zeta",
                      help="reciprocal zeta polynomial coefficients"),
                      _cmd_zeta)
    add_graph_options(sub.add_parser("rh",
                      help="pole analysis and Riemann-hypothesis verdicts"),
                      _cmd_rh, formats=("text", "json"))
    add_graph_options(sub.add_parser("primes",
                      help="closed-walk and prime-class table"),
                      _cmd_primes, horizon=True)
    add_graph_options(sub.add_parser("spectrum",
                      help="adjacency eigenvalues"), _cmd_spectrum)
    add_graph_options(sub.add_parser("export-plot",
                      help="CSV of poles and eigenvalues (re,im,kind)"),
                      _cmd_export_plot, formats=())

    for name in ("ade", "dimer"):
        p = sub.add_parser(name, help=f"emit a generated {name} graph "
                                      "as JSON")
        p.set_defaults(run=_cmd_generate, loops=False)
        p.add_argument("spec", help="A2/D4/E6 style spec" if name == "ade"
                                    else "valency list, e.g. 3,4")
        if name == "ade":
            p.add_argument("--loops", action="store_true")
        p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("catalog-verify",
                       help="recompute the bundled tiling catalog")
    p.set_defaults(run=_cmd_catalog_verify)
    p.add_argument("--catalog", metavar="PATH",
                   help="catalog file (default: the bundled data)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="PATH")
    return parser


def _parse_valencies(text: str) -> list[int]:
    """Comma-separated positive integers, each a run of ASCII digits."""
    parts = [part.strip() for part in text.split(",")]
    if not all(p.isascii() and p.isdigit() and int(p) >= 1 for p in parts):
        raise ValueError(f"bad valency list {text!r}")
    return [int(p) for p in parts]


def _spec_graph(kind: str, spec: str, loops: bool,
                parser: _Parser) -> MixedGraph:
    """Graph from an affine diagram spec (kind "ade") or a dimer valency
    list (kind "dimer"); a bad spec is a usage error."""
    try:
        if kind == "ade":
            family, index = parse_ade_spec(spec)
            return ade_graph(family, index, with_loops=loops)
        return dimer_graph(_parse_valencies(spec))
    except ValueError as err:
        parser.error(str(err))


def _load_graph(args, parser: _Parser) -> MixedGraph:
    if args.loops and args.ade is None:
        parser.error("--loops applies only to --ade")
    if args.graph is not None:
        try:
            with open(args.graph, "r", encoding="utf-8") as fh:
                return MixedGraph.from_dict(json.load(fh))
        except OSError as err:
            raise ValueError(f"cannot read {args.graph}: {err}") from err
        except GraphFormatError as err:
            raise ValueError(f"{args.graph}: {err}") from err
        except ValueError as err:  # also an int past the integer-string limit
            raise ValueError(f"{args.graph}: not valid JSON: {err}") from err
    if args.ade is not None:
        return _spec_graph("ade", args.ade, args.loops, parser)
    return _spec_graph("dimer", args.dimer, False, parser)


def _emit(text: str, out_path):
    # no rendered text ends in a newline
    text += "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            sys.stderr.write(f"zetaforge: cannot write {out_path}: {err}\n")
            raise SystemExit(EXIT_USAGE) from None
    else:
        sys.stdout.write(text)


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _render(fmt: str, doc=None, header: str = "", rows=(),
            text=None) -> str:
    """A verb's output in format fmt, building that format alone: json is
    doc() at indent 2, csv the header line and then each row joined by
    commas (str of a float is its repr), text the lines of text()."""
    if fmt == "json":
        return json.dumps(doc(), indent=2)
    if fmt == "csv":
        return "\n".join([header, *(",".join(map(str, row)) for row in rows)])
    return "\n".join(text())


def _cmd_zeta(args, parser) -> tuple[str, int]:
    coeffs = zeta_inverse(_load_graph(args, parser)).coeffs
    return _render(args.format,
                   lambda: {"zeta_inverse": [str(c) for c in coeffs]},
                   "power,coefficient", enumerate(coeffs),
                   lambda: [", ".join(map(str, coeffs))]), EXIT_OK


def _cmd_rh(args, parser) -> tuple[str, int]:
    report = analyze(_load_graph(args, parser))
    return _render(args.format, report.to_json_dict, text=lambda: [
        f"zeta_inverse: {report.zeta_inverse}",
        "coefficients: " + ", ".join(map(str, report.zeta_inverse.coeffs)),
        *(f"pole: {_fmt_float(root.real)} {root.imag:+.12g}i"
          f"  multiplicity {mult}  modulus {_fmt_float(abs(root))}"
          for root, mult in report.poles),
        f"R_G: {_fmt_float(report.r_g)}",
        f"p: {report.p}",
        f"q: {report.q}  (total degree: undirected + in- + out-arrows)",
        f"classification: {report.classification}"
        f" ({_FLAGS[report.classification]})",
        f"ramanujan: {report.ramanujan}",
        f"kotani_sunada_ok: {report.kotani_sunada_ok}",
        f"xi_functional_ok: {report.xi_functional_ok}",
        f"connected: {report.connected}",
    ]), EXIT_OK


def _cmd_primes(args, parser) -> tuple[str, int]:
    """The census table to the horizon -L: the closed-walk counts N_m
    and prime counts pi(m) from the dart-matrix traces (node sums), each
    N_m checked against the series of 1/zeta, and the ratios pi(m) m
    R_G^m / delta, with R_G the least positive root of zeta^-1 (see
    census), which least_positive_root isolates exactly on the square-free
    part and rounds once.  No root search runs, so the ratios are printed
    whenever there is a prime."""
    if not 1 <= args.horizon <= HORIZON_LIMIT:
        parser.error(f"horizon -L must be in 1..{HORIZON_LIMIT}")
    g = _load_graph(args, parser)
    census = enumerate_primes(g, args.horizon)
    # the traces against the series of 1/zeta, a route that shares no
    # code with them
    zi = zeta_inverse(g)
    series = log_derivative_series(zi, args.horizon)
    for m, (traced, expected) in enumerate(zip(census.closed_counts,
                                               series), 1):
        if traced != expected:
            raise CensusError(f"closed-walk count mismatch at length {m}: "
                              f"traces {traced}, series of 1/zeta "
                              f"{expected}")
    # with no prime there is no ratio, so R_G is not computed
    ratios = (pnt_ratios(census, least_positive_root(zi)) if census.delta
              else {})
    rows = [(m, census.closed_counts[m - 1], census.prime_counts[m - 1],
             _fmt_float(ratios[m]) if m in ratios else "-")
            for m in range(1, args.horizon + 1)]
    return _render(args.format, lambda: {
        "horizon": census.horizon,
        "delta": census.delta,
        "closed_counts": census.closed_counts,
        "prime_counts": census.prime_counts,
        "pnt_ratios": {str(m): ratios[m] for m in ratios},
    }, "m,closed_walks,primes,pnt_ratio", rows, lambda: [
        f"delta: {census.delta}",
        f"{'m':>3} {'N_m':>10} {'pi(m)':>10} {'pnt_ratio':>14}",
        *(f"{m:>3} {n:>10} {p:>10} {r:>14}" for m, n, p, r in rows)]), EXIT_OK


def _cmd_spectrum(args, parser) -> tuple[str, int]:
    spec = adjacency_spectrum(_load_graph(args, parser))
    return _render(args.format, lambda: {"eigenvalues": [
        {"re": lam.real, "im": lam.imag, "multiplicity": mult}
        for lam, mult in spec]},
        "re,im,multiplicity",
        ((lam.real, lam.imag, mult) for lam, mult in spec),
        lambda: [f"{_fmt_float(lam.real)} {_fmt_float(lam.imag)}i  "
                 f"multiplicity {mult}" for lam, mult in spec]), EXIT_OK


def _cmd_export_plot(args, parser) -> tuple[str, int]:
    return _render("csv", header="re,im,kind",
                   rows=plot_points(_load_graph(args, parser))), EXIT_OK


def _cmd_generate(args, parser) -> tuple[str, int]:
    g = _spec_graph(args.verb, args.spec, args.loops, parser)
    return _render("json", g.to_dict), EXIT_OK


def _cmd_catalog_verify(args, parser) -> tuple[str, int]:
    result = verify_catalog(load_catalog(args.catalog))
    return _render(args.format, lambda: {
        "ok": result.ok,
        "rows": [{"id": row.record_id, "ok": row.ok,
                  "issues": row.issues, "notes": row.notes}
                 for row in result.rows],
    }, text=result.summary_lines), EXIT_OK if result.ok else EXIT_VERIFY


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        text, code = args.run(args, parser)
        _emit(text, args.out)
        return code
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_USAGE
    except (NumericalError, CensusError) as err:
        print(f"zetaforge: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"zetaforge: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
