"""Command-line front end.

Verbs: zeta, rh, primes, spectrum (computations on one graph), ade and
dimer (emit generated graphs as JSON), catalog-verify (recompute the
bundled 41-record reference catalog) and export-plot (scatter CSV of
poles and eigenvalues).  Graphs come from a JSON file (--graph), an
affine diagram spec (--ade A2, optionally --loops) or a dimer valency
list (--dimer 3,4).

Exit codes: 0 success, 1 usage, 2 input parse, 3 numerical failure,
4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import (CatalogError, ade_graph, dimer_graph, load_catalog,
                      parse_ade_spec, verify_catalog)
from .census import CensusError, enumerate_primes, pnt_ratios
from .graphs import GraphFormatError, MixedGraph, normalize
from .rootfind import DEFAULT_MERGE, DEFAULT_TOL, NumericalError, find_roots
from .zeta import (_FLAGS, adjacency_spectrum, analyze, plot_points,
                   zeta_inverse)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _InputError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="zetaforge",
                     description="Zeta functions of partially directed "
                                 "multigraphs")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_graph_options(p, horizon=False):
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
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="root-iteration convergence tolerance")
        p.add_argument("--merge", type=float, default=DEFAULT_MERGE,
                       help="root merge distance")
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")
        p.add_argument("--out", metavar="PATH",
                       help="write output to a file instead of stdout")
        if horizon:
            p.add_argument("-L", dest="horizon", type=int, default=6,
                           help="series horizon (1..12)")

    add_graph_options(sub.add_parser("zeta",
                      help="reciprocal zeta polynomial coefficients"))
    add_graph_options(sub.add_parser("rh",
                      help="pole analysis and Riemann-hypothesis verdicts"))
    add_graph_options(sub.add_parser("primes",
                      help="closed-walk and prime-class table"),
                      horizon=True)
    add_graph_options(sub.add_parser("spectrum",
                      help="adjacency eigenvalues"))
    add_graph_options(sub.add_parser("export-plot",
                      help="CSV of poles and eigenvalues (re,im,kind)"))

    for name in ("ade", "dimer"):
        p = sub.add_parser(name, help=f"emit a generated {name} graph "
                                      "as JSON")
        p.add_argument("spec", help="A2/D4/E6 style spec" if name == "ade"
                                    else "valency list, e.g. 3,4")
        if name == "ade":
            p.add_argument("--loops", action="store_true")
        p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("catalog-verify",
                       help="recompute the bundled tiling catalog")
    p.add_argument("--catalog", metavar="PATH",
                   help="catalog file (overrides ZETAFORGE_CATALOG and "
                        "the bundled data)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--merge", type=float, default=DEFAULT_MERGE)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="PATH")
    return parser


def _parse_valencies(text: str) -> list[int]:
    try:
        vals = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"bad valency list {text!r}") from None
    if not vals or any(v < 1 for v in vals):
        raise ValueError(f"bad valency list {text!r}")
    return vals


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
    if args.graph is not None:
        try:
            with open(args.graph, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            g = MixedGraph.from_dict(doc)
        except OSError as err:
            raise _InputError(f"cannot read {args.graph}: {err}") from err
        except json.JSONDecodeError as err:
            raise _InputError(f"{args.graph}: not valid JSON: {err}") from err
        except GraphFormatError as err:
            raise _InputError(f"{args.graph}: {err}") from err
        return normalize(g)
    if args.ade is not None:
        return _spec_graph("ade", args.ade, args.loops, parser)
    return _spec_graph("dimer", args.dimer, False, parser)


def _emit(text: str, out_path):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _cmd_zeta(args, parser) -> int:
    g = _load_graph(args, parser)
    zi = zeta_inverse(g)
    if args.format == "json":
        text = json.dumps({"zeta_inverse": [str(c) for c in zi.coeffs]},
                          indent=2)
    elif args.format == "csv":
        lines = ["power,coefficient"]
        lines += [f"{k},{c}" for k, c in enumerate(zi.coeffs)]
        text = "\n".join(lines)
    else:
        text = ", ".join(str(c) for c in zi.coeffs)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_rh(args, parser) -> int:
    if args.format == "csv":
        parser.error("rh does not support csv; use export-plot")
    g = _load_graph(args, parser)
    report = analyze(g, args.tol, args.merge)
    if args.format == "json":
        text = json.dumps(report.to_json_dict(), indent=2)
    else:
        lines = [
            f"zeta_inverse: {report.zeta_inverse}",
            "coefficients: " + ", ".join(str(c)
                                         for c in report.zeta_inverse.coeffs),
        ]
        for root, mult in report.poles:
            lines.append(
                f"pole: {_fmt_float(root.real)} {root.imag:+.12g}i"
                f"  multiplicity {mult}  modulus {_fmt_float(abs(root))}")
        lines += [
            f"R_G: {_fmt_float(report.r_g)}",
            f"p: {report.p}",
            f"q: {report.q}  (total degree: undirected + in- + out-arrows)",
            f"classification: {report.classification}"
            f" ({_FLAGS[report.classification]})",
            f"ramanujan: {report.ramanujan}",
            f"kotani_sunada_ok: {report.kotani_sunada_ok}",
            f"xi_functional_ok: {report.xi_functional_ok}",
            f"connected: {report.connected}",
        ]
        text = "\n".join(lines)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_primes(args, parser) -> int:
    if not 1 <= args.horizon <= 12:
        parser.error("horizon -L must be in 1..12")
    g = _load_graph(args, parser)
    census = enumerate_primes(g, args.horizon)
    r_g = find_roots(zeta_inverse(g), args.tol, args.merge).min_modulus()
    try:
        ratios = pnt_ratios(census, r_g)
    except CensusError:
        ratios = {}
    rows = []
    for m in range(1, args.horizon + 1):
        ratio = _fmt_float(ratios[m]) if m in ratios else "-"
        rows.append((m, census.closed_counts[m - 1],
                     census.prime_counts[m - 1], ratio))
    if args.format == "json":
        text = json.dumps({
            "horizon": census.horizon,
            "delta": census.delta,
            "closed_counts": census.closed_counts,
            "prime_counts": census.prime_counts,
            "pnt_ratios": {str(m): ratios[m] for m in ratios},
        }, indent=2)
    elif args.format == "csv":
        lines = ["m,closed_walks,primes,pnt_ratio"]
        lines += [f"{m},{n},{p},{r}" for m, n, p, r in rows]
        text = "\n".join(lines)
    else:
        lines = [f"delta: {census.delta}",
                 f"{'m':>3} {'N_m':>10} {'pi(m)':>10} {'pnt_ratio':>14}"]
        lines += [f"{m:>3} {n:>10} {p:>10} {r:>14}" for m, n, p, r in rows]
        text = "\n".join(lines)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_spectrum(args, parser) -> int:
    g = _load_graph(args, parser)
    spec = adjacency_spectrum(g, args.tol, args.merge)
    if args.format == "json":
        text = json.dumps({"eigenvalues": [
            {"re": lam.real, "im": lam.imag, "multiplicity": mult}
            for lam, mult in spec]}, indent=2)
    elif args.format == "csv":
        lines = ["re,im,multiplicity"]
        lines += [f"{lam.real!r},{lam.imag!r},{mult}" for lam, mult in spec]
        text = "\n".join(lines)
    else:
        lines = [f"{_fmt_float(lam.real)} {_fmt_float(lam.imag)}i  "
                 f"multiplicity {mult}" for lam, mult in spec]
        text = "\n".join(lines) if lines else "(no eigenvalues)"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_export_plot(args, parser) -> int:
    g = _load_graph(args, parser)
    lines = ["re,im,kind"]
    lines += [f"{re!r},{im!r},{kind}"
              for re, im, kind in plot_points(g, args.tol, args.merge)]
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_generate(args, parser) -> int:
    g = _spec_graph(args.verb, args.spec,
                    args.verb == "ade" and args.loops, parser)
    _emit(json.dumps(g.to_dict(), indent=2), args.out)
    return EXIT_OK


def _cmd_catalog_verify(args, parser) -> int:
    records = load_catalog(args.catalog)
    result = verify_catalog(records, args.tol, args.merge)
    if args.format == "json":
        text = json.dumps({
            "ok": result.ok,
            "rows": [{"id": row.record_id, "ok": row.ok,
                      "issues": row.issues, "notes": row.notes}
                     for row in result.rows],
        }, indent=2)
    else:
        text = "\n".join(result.summary_lines())
    _emit(text, args.out)
    return EXIT_OK if result.ok else EXIT_VERIFY


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_USAGE
    handlers = {
        "zeta": _cmd_zeta,
        "rh": _cmd_rh,
        "primes": _cmd_primes,
        "spectrum": _cmd_spectrum,
        "export-plot": _cmd_export_plot,
        "ade": _cmd_generate,
        "dimer": _cmd_generate,
        "catalog-verify": _cmd_catalog_verify,
    }
    try:
        return handlers[args.verb](args, parser)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_USAGE
    except _InputError as err:
        print(f"zetaforge: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (CatalogError, GraphFormatError) as err:
        print(f"zetaforge: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, CensusError) as err:
        print(f"zetaforge: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"zetaforge: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
