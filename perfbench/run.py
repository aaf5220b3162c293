"""Benchmark of the zetaforge command line, end to end and per layer.

    python3 perfbench/run.py --workload banded --seed 1 --seconds 20 --trace 0

One process, one closed-loop caller: each call of ``zetaforge.cli.main``
starts only after the previous one returns, with stdout captured.  The
run makes as many whole passes over the workload's call list as fit in
--seconds at nominal speed (see REF_NOMINAL_S), then checks every
distinct output against the oracles in ``oracle.py``.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes over the same call list: traced passes record a span
at every layer boundary (``tracing.py``) and yield the per-layer metrics,
the per-graph rows and the tracing overhead; the spans are written to
``perfbench/out/``.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A call fails when it raises, exits
non-zero, prints a non-finite number or disagrees with an oracle;
``correct`` is false only when some output is a wrong answer, that is a
failure other than the numerical class described in ``oracle.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CATALOG = SRC / "zetaforge" / "data" / "tilings41.json"
SETUP_REPEATS = 5
TAIL_BEYOND = 10   # samples that must lie beyond the reported tail latency
# Shared machines change speed by tens of percent within seconds.  Every
# call is timed between two runs of a fixed reference workload and scaled
# to the speed at which that workload takes REF_NOMINAL_S (about its median
# between calls on a 2-vCPU Xeon VM under Python 3.11); every time reported
# is in seconds at that nominal speed.  The reference mixes an interpreter
# loop with big-integer products, like the program does.
REF_LOOPS = 150_000
REF_PRODUCTS = 10
REF_NOMINAL_S = 0.015
_REF_A = tuple(range(10**20, 10**20 + 60))
_REF_B = tuple(range(3**40, 3**40 + 60))

VERBS = ("zeta", "rh", "spectrum", "export-plot", "primes", "catalog-verify")


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# set-up


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median set-up time over fresh processes, run one after another,
    at nominal speed."""
    times = []
    for k in range(SETUP_REPEATS):
        target = workdir / f"setup{k}"
        target.mkdir()
        before = reference_seconds()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed), str(target)],
            capture_output=True, text=True, timeout=30, check=False)
        if proc.returncode != 0:
            _die(f"set-up probe failed:\n{proc.stderr}")
        factor = (before + reference_seconds()) / (2 * REF_NOMINAL_S)
        times.append(float(proc.stdout.split()[-1]) / factor)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# calls


def reference_seconds() -> float:
    """Time of the fixed reference workload: the machine's current speed."""
    start = time.perf_counter()
    x = 0
    for k in range(REF_LOOPS):
        x += k
    for _ in range(REF_PRODUCTS):
        product = [0] * (len(_REF_A) + len(_REF_B) - 1)
        for i, a in enumerate(_REF_A):
            for j, b in enumerate(_REF_B):
                product[i + j] += a * b
    return time.perf_counter() - start


def run_call(cli, call, tracer=None, call_id=None):
    """(seconds, exit code or exception text, stdout) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()

    def main():
        return cli.main(list(call.argv))

    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                code = main()
            else:
                code = tracer.call(call_id, f"cli.{call.verb}", call.graph,
                                   main)
    except Exception as exc:  # a raising call is a failed call, not a crash
        code = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


class Record:
    """Latency samples (at nominal speed) and distinct outputs of every
    call in the list, and the speed factor of every traced call."""

    def __init__(self, calls):
        self.calls = calls
        self.latency: list[list[float]] = [[] for _ in calls]
        self.outputs: list[set] = [set() for _ in calls]
        self.factors: dict[str, float] = {}
        self.references: list[float] = []

    @property
    def samples(self) -> list[float]:
        return [t for per_call in self.latency for t in per_call]

    def one_pass(self, cli, tracer=None, pass_no=0) -> float:
        """Run every call once, closed loop; the pass time at nominal
        speed.  Garbage is collected before each reference run and call,
        so that neither pays for the previous call's garbage."""
        total = 0.0
        gc.collect()
        before = reference_seconds()
        for k, call in enumerate(self.calls):
            call_id = f"p{pass_no}c{k}"
            seconds, code, out = run_call(cli, call, tracer, call_id)
            gc.collect()
            after = reference_seconds()
            self.references.append(after)
            factor = (before + after) / (2 * REF_NOMINAL_S)
            before = after
            self.latency[k].append(seconds / factor)
            self.outputs[k].add((code, out))
            if tracer is not None:
                self.factors[call_id] = factor
            total += seconds / factor
        return total


def pass_count(workload: str, calls: int, seconds: float) -> int:
    """Passes per run: as many as fit in seconds at nominal speed, and
    enough for TAIL_BEYOND samples beyond the tail."""
    fit = int(seconds // workloads.NOMINAL_PASS_S[workload])
    return max(fit, 1, -(-(TAIL_BEYOND + 1) // calls))


def passes(cli, record, count, tracer=None):
    """count whole passes over the call list (with a tracer: pairs of
    passes, untraced then traced).  Returns the nominal times of the
    untraced and of the traced passes."""
    untraced: list[float] = []
    traced: list[float] = []
    for _ in range(count):
        untraced.append(record.one_pass(cli))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(record.one_pass(cli, tracer, len(traced)))
            finally:
                tracer.uninstall()
    return untraced, traced


# ---------------------------------------------------------------------------
# verification


def reference(zetaforge, name, doc, record):
    """(coefficients, walk matrices, problem) of a graph: the first zeta
    polynomial printed for it that passes the integer determinant check,
    else zeta_inverse's, if that passes."""
    walk = oracle.walk(doc)
    for call, outputs in zip(record.calls, record.outputs):
        if call.graph != name or call.verb not in ("zeta", "rh"):
            continue
        for code, out in outputs:
            try:
                coeffs = [int(c) for c in json.loads(out)["zeta_inverse"]]
            except (KeyError, ValueError, TypeError):
                continue
            if oracle.confirms(coeffs, walk):
                return coeffs, walk, None
    try:
        graph = zetaforge.MixedGraph.from_dict(doc)
        coeffs = list(zetaforge.zeta_inverse(graph).coeffs)
    except Exception as exc:  # the reference itself is an output
        return None, walk, f"reference failed: {exc!r}"
    if oracle.confirms(coeffs, walk):
        return coeffs, walk, None
    return None, walk, "zeta_inverse fails the integer determinant check"


def verify(zetaforge, inputs, record, tracer=None):
    """Failure (or None) per call, checking each distinct output once."""
    refs = {name: reference(zetaforge, name, doc, record)
            for name, doc in inputs.graphs.items()}
    catalog_problem = None
    if inputs.catalog is not None:
        bad = [r["id"] for r in inputs.catalog if not (
            oracle.confirms(r["dimer_zeta"],
                            oracle.walk(workloads.dimer(r["valencies"])))
            and oracle.confirms(r["quiver_zeta"],
                                oracle.walk(oracle.quiver_doc(r["quiver"]))))]
        if bad:
            catalog_problem = f"bundled references fail the check: {bad}"

    series_cache = {}

    def series(name, horizon):
        key = (name, horizon)
        if key not in series_cache:
            poly = zetaforge.IntPoly(refs[name][0])

            def compute():
                return zetaforge.log_derivative_series(poly, horizon)
            series_cache[key] = (compute() if tracer is None else
                                 tracer.call("oracle", "intpoly."
                                             "log_derivative_series",
                                             name, compute))
        return series_cache[key]

    failures = []
    for call, outputs in zip(record.calls, record.outputs):
        failure = None
        if len(outputs) > 1:
            failure = oracle.Failure(False, "output differs between passes")
        for code, out in outputs:
            failure = failure or _check(call, code, out, refs, inputs,
                                        catalog_problem, series)
        failures.append(failure)
    return failures


def _check(call, code, out, refs, inputs, catalog_problem, series):
    if isinstance(code, str):
        return oracle.Failure(False, code)
    if code == oracle.EXIT_NUMERIC:
        return oracle.Failure(True, "exit code 3 (numerical failure)")
    if code != 0:
        return oracle.Failure(False, f"exit code {code}")
    try:
        doc = oracle.parse(call.verb, out)
        if call.verb == "catalog-verify":
            if catalog_problem:
                return oracle.Failure(False, catalog_problem)
            return oracle.check_catalog(doc,
                                        [r["id"] for r in inputs.catalog])
        ref, walk, problem = refs[call.graph]
        if problem:
            return oracle.Failure(False, problem)
        if call.verb == "zeta":
            return oracle.check_zeta(doc, ref)
        if call.verb == "rh":
            return oracle.check_rh(doc, ref)
        if call.verb == "spectrum":
            return oracle.check_spectrum(doc, walk)
        if call.verb == "export-plot":
            return oracle.check_plot(doc, ref, walk)
        horizon = int(call.argv[call.argv.index("-L") + 1])
        return oracle.check_primes(doc, series(call.graph, horizon))
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return oracle.Failure(False, f"unreadable output: {exc!r}")


# ---------------------------------------------------------------------------
# metrics


def _metric(value, unit):
    return {"value": value, "unit": unit}


def tail(samples):
    """(latency, percentile, count): the highest percentile with at least
    TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(record, walls, setup_s, peak_rss_mb, failed, attempted):
    latency, pct, count = tail(record.samples)
    print(f"passes: {len(walls)}; call_tail_s is p{pct:.1f} of {count} "
          "calls")
    return {
        "wall_s": _metric(statistics.median(walls), "s"),
        "call_p50_s": _metric(statistics.median(record.samples), "s"),
        "call_tail_s": _metric(latency, "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "ok_frac": _metric((attempted - failed) / attempted, "ratio"),
    }


# metric name -> (span name, "total" or "self")
SPAN_METRICS = {
    "graphs.matrices_s": ("graphs.matrices", "total"),
    "polydet.det_poly_s": ("polydet.det_poly", "total"),
    "polydet.char_poly_s": ("polydet.char_poly", "total"),
    "intpoly.prefactor_s": ("intpoly.prefactor", "total"),
    "intpoly.squarefree_s": ("intpoly.squarefree_factors", "total"),
    "rootfind.find_roots_s": ("rootfind.find_roots", "total"),
    "rootfind.aberth_self_s": ("rootfind.find_roots", "self"),
    "zeta.zeta_inverse_s": ("zeta.zeta_inverse", "total"),
    "zeta.analyze_s": ("zeta.analyze", "total"),
    "zeta.spectrum_s": ("zeta.adjacency_spectrum", "total"),
    "zeta.xi_check_s": ("zeta.xi_functional_check", "total"),
    "zeta.ramanujan_s": ("zeta.is_ramanujan", "total"),
    "census.enumerate_primes_s": ("census.enumerate_primes", "total"),
    "census.closed_paths_s": ("census.count_closed_paths", "total"),
    "catalog.verify_s": ("catalog.verify_catalog", "total"),
    "catalog.dimer_closed_s": ("catalog.dimer_zeta_closed", "total"),
    "catalog.load_s": ("catalog.load_catalog", "total"),
}
SPAN_METRICS.update({f"cli.{verb}_s": (f"cli.{verb}", "total")
                     for verb in VERBS})
PER_PASS_COUNTS = ("zeta.zeta_inverse_calls", "zeta.adjacency_spectrum_calls",
                   "zeta.analyze_calls", "rootfind.nonfinite_roots",
                   "census.prime_classes")
MAXIMA = ("intpoly.max_multiplicity", "intpoly.sqfree_max_degree",
          "census.darts", "catalog.records_ok")


def span_scale(record, passes):
    """Span time -> time per traced pass at nominal speed.  The oracle's
    series spans run once per graph, which is one pass's worth."""
    typical = statistics.median(record.factors.values())

    def scale(span):
        factor = record.factors.get(span.call, typical)
        if span.call == "oracle":
            return 1.0 / factor
        return 1.0 / (factor * passes)
    return scale


def per_layer(tracer, scale, walls):
    """Per-layer metrics: span times by name, self time by layer, counts
    per traced pass, and the tracing overhead over the untraced passes."""
    passes = len(walls[1])
    total, own = defaultdict(float), defaultdict(float)
    spans = 0
    for s in tracer.spans:
        total[s.name] += s.duration * scale(s)
        own[s.name] += s.self_time * scale(s)
        spans += s.call != "oracle"
    out = {name: _metric(total[span] if kind == "total" else own[span], "s")
           for name, (span, kind) in SPAN_METRICS.items()}
    out["intpoly.log_derivative_s"] = _metric(
        total["intpoly.log_derivative_series"], "s")
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = _metric(
            sum(t for name, t in own.items()
                if name.split(".", 1)[0] == layer), "s")
    for name in PER_PASS_COUNTS:
        out[name] = _metric(tracer.counts[name] / passes, "count")
    for name in MAXIMA:
        out[name] = _metric(tracer.maxima[name], "count")
    base, traced = statistics.median(walls[0]), statistics.median(walls[1])
    out["trace.base_wall_s"] = _metric(base, "s")
    out["trace.wall_s"] = _metric(traced, "s")
    out["trace.overhead_s"] = _metric(traced - base, "s")
    out["trace.spans"] = _metric(spans / passes, "count")
    return out


def write_trace(path, meta, tracer, rows, metrics):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics, "graphs": rows,
                   "span_fields": ["name", "start", "end", "parent", "call",
                                   "graph"],
                   "spans": tracer.dump()}, fh)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zetaforge" / "__init__.py").is_file():
        _die(f"no zetaforge sources under {SRC}")
    if args.seconds <= 0:
        _die("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    os.environ.pop("ZETAFORGE_CATALOG", None)
    if args.workload not in workloads.WHY:
        _die(f"unknown workload {args.workload!r}; expected one of "
             f"{', '.join(workloads.WHY)}")

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s = (measure_setup(args.workload, args.seed, workdir)
                   if not args.trace else None)
        import zetaforge
        from zetaforge import cli
        if not Path(zetaforge.__file__).resolve().is_relative_to(SRC):
            _die(f"zetaforge imported from {zetaforge.__file__}, not {SRC}")
        inputs = workloads.build(args.workload, args.seed, workdir, CATALOG)

        meta = {"workload": args.workload, "seed": args.seed,
                "why": workloads.WHY[args.workload],
                "inputs": inputs.size_range, "calls": len(inputs.calls),
                "python": platform.python_version(), "nproc": _nproc(),
                "seconds": args.seconds,
                "loop": "closed, one caller, in-process cli.main"}
        for key, value in meta.items():
            print(f"{key}: {value}")

        record = Record(inputs.calls)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            for name, doc in inputs.graphs.items():
                tracer.label(zetaforge.MixedGraph.from_dict(doc), name)
        count = pass_count(args.workload, len(inputs.calls), args.seconds)
        if tracer is not None:
            count = max(1, count // 2)
        walls = passes(cli, record, count, tracer)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = verify(zetaforge, inputs, record, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it

    attempted = failed = 0
    correct = True
    for call, latency, failure in zip(inputs.calls, record.latency,
                                      failures):
        print(f"call {call.verb} {call.graph or ''}: median "
              f"{statistics.median(latency):.4f} s of {len(latency)}")
        attempted += len(latency)
        if failure:
            failed += len(latency)
            correct = correct and failure.numerical
            kind = "numerical" if failure.numerical else "WRONG"
            print(f"failed ({kind}): {call.verb} {call.graph or ''}: "
                  f"{failure.reason}")
    print(f"failed_frac: {failed / attempted:.4f} "
          f"({failed} of {attempted} calls)")
    print(f"reference workload: median "
          f"{statistics.median(record.references):.5f} s, nominal "
          f"{REF_NOMINAL_S} s")

    if args.trace:
        scale = span_scale(record, len(walls[1]))
        metrics = per_layer(tracer, scale, walls)
        rows = tracer.per_graph(scale)
        for label, row in rows.items():
            print(f"graph {label}: " + " ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in row.items()))
        print(f"tracing overhead: {metrics['trace.overhead_s']['value']:+.4f}"
              f" s per pass on an untraced base of "
              f"{metrics['trace.base_wall_s']['value']:.4f} s")
        write_trace(HERE / "out" / f"trace-{args.workload}-"
                    f"seed{args.seed}.json", meta, tracer, rows, metrics)
    else:
        metrics = end_to_end(record, walls[0], setup_s, peak_rss_mb, failed,
                             attempted)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
