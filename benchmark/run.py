"""The tasp benchmark.

    python3 benchmark/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 benchmark/run.py            # every workload, both modes

Each request runs the solve pipeline through the library entry points in
the order of ``cli.run_pipeline``, plus a model limit, and its answer is
checked against the brute-force oracle.  A run repeats rounds of its
workload (one instance, or the seeded set of random programs) for about
T seconds.

``--trace 0`` reports the end-to-end metrics with tracing off.  The
speed of a shared host drifts by up to a factor of two between identical
runs, so every time is divided by the host speed sampled while it was
measured (see calib.py) and reported in *cal* units; raw seconds are
printed beside them but not gated.  ``--trace 1`` alternates untraced rounds with rounds that record a span
around every layer call, reports per-layer metrics, and writes the spans
to ``benchmark/out/``.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, SRC)
try:
    from tasp import meta, solver
    from tasp.grammar import (GrammarError, TypeError_, builtin_grammar,
                              check_occurrence, typecheck_program)
    # tasp/__init__ binds the name `ground` to a function, so the module
    # must be imported by its full path.
    from tasp.ground import Grounder, GroundingError
    from tasp.meta import MetaError
    from tasp.parser import ParseError, parse_program
    from tasp.reify import ReifyError, emit_reified_text, reify
    from tasp.solver import SolverError
    from tasp.transform import UnsafeRuleError, transform_program
except ImportError as exc:
    sys.exit("error: cannot import tasp from %s: %s"
             % (os.path.normpath(SRC), exc))

import calib  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TASP_ERRORS = (ParseError, GrammarError, TypeError_, UnsafeRuleError,
               GroundingError, ReifyError, MetaError, SolverError)

LAYERS = ("parser", "grammar", "transform", "ground", "reify", "meta",
          "solver", "extract")
SIZES = ("ground.rules", "reify.facts", "meta.rules", "meta.facts",
         "meta.atoms", "solver.models")

#: Fewest timed rounds, and fewest traced rounds, a run makes whatever
#: --seconds says.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1
#: Fresh interpreters timed for setup_s, after one that fills the
#: bytecode cache.
SETUP_SAMPLES = 7


# ---------------------------------------------------------------------------
# The pipeline


def pipeline(req, tracer):
    """One solve request.  Returns the set of distinct temporal models and
    the intermediate results the traced run takes its sizes from."""
    with tracer.span("grammar"):
        g = builtin_grammar(req.semantics)
    with tracer.span("parser"):
        program = parse_program(req.text)
    with tracer.span("grammar"):
        typed = typecheck_program(program, g)
        check_occurrence(typed, g)
    with tracer.span("transform"):
        transformed, show_all = transform_program(typed, g)
    with tracer.span("ground"):
        gp = Grounder(transformed, {}, g).ground()
    with tracer.span("reify"):
        db = reify(gp, show_all)
    with tracer.span("meta"):
        mp = meta.build(db, req.n, semantics=req.semantics)
    with tracer.span("solver"):
        models = solver.solve(mp.program, limit=req.limit)
    answer = set()
    for m in models:
        with tracer.span("extract"):
            answer.add(meta.extract_model(mp, m.atoms))
    return answer, (gp, db, mp, models)


def sizes(parts, answer):
    gp, db, mp, models = parts
    return {"ground.rules": len(gp.rules),
            "reify.facts": len(emit_reified_text(db).splitlines()),
            "meta.rules": len(mp.program.rules),
            "meta.facts": len(mp.program.facts),
            "meta.atoms": len(mp.program.symbol_table),
            "solver.models": len(models),
            "distinct": len(answer)}


# ---------------------------------------------------------------------------
# Measurement


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.wrong = 0


class Round:
    def __init__(self):
        self.seconds = []   # raw time of each request
        self.cal = []       # the same in cal units
        self.units = []     # seconds per cal unit over each block
        self.sizes = []     # per request, traced rounds only


def run_round(requests, checks, block, tracer, tally, probe):
    """Serve every request of one round, checking each answer.  A
    request's time, less the probe's slices inside it, is divided by the
    cal unit the probe measured over its block of `block` requests."""
    rnd = Round()
    for lo in range(0, len(requests), block):
        first = len(probe.speeds)
        times = []
        for req, check in zip(requests[lo:lo + block], checks[lo:lo + block]):
            tally.attempted += 1
            tracer.begin_request()
            spent, start = probe.spent, perf_counter()
            try:
                with tracer.span("request"):
                    answer, parts = pipeline(req, tracer)
            except TASP_ERRORS:
                tally.failed += 1
                continue
            finally:
                times.append(perf_counter() - start - (probe.spent - spent))
            if not check(answer):
                tally.wrong += 1
            if isinstance(tracer, tracing.Tracer):
                rnd.sizes.append(sizes(parts, answer))
            del answer, parts
        unit = probe.unit_since(first)
        rnd.units.append(unit)
        rnd.seconds.extend(times)
        rnd.cal.extend(t / unit for t in times)
    return rnd


SETUP_CODE = """\
import sys
from time import perf_counter
sys.path[:0] = [%r, %r]
import calib
with calib.Probe() as probe:
    start = perf_counter()
    import tasp
    for s in ("tel", "mel", "del"):
        tasp.builtin_grammar(s)
    raw = perf_counter() - start - probe.spent
    unit = probe.unit_since(0)
print(raw, raw / unit)
"""


def measure_setup():
    """Time `import tasp` plus the three builtin grammars in fresh
    interpreters, the first of which only fills the bytecode cache.
    Returns (seconds, cal units) samples."""
    code = SETUP_CODE % (os.path.abspath(SRC), HERE)
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=60)
        samples.append(tuple(map(float, done.stdout.split())))
    return samples[1:]


def p95(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end_metrics(rounds, setup, peak_rss_kb):
    """Rounds repeat the same requests in the same order.  A request's
    time is its median over the rounds, which takes most of the noise out
    of requests of a few milliseconds; p50 and p95 are taken over the
    distinct requests, so they coincide with `wall_cal` on a workload of
    one request."""
    cal = [statistics.median(ts) for ts in zip(*(r.cal for r in rounds))]
    return {
        "wall_cal": (statistics.median(sum(r.cal) for r in rounds), "cal"),
        "request_p50_cal": (statistics.median(cal), "cal"),
        "request_p95_cal": (p95(cal), "cal"),
        # set-up time in seconds at the reference host speed
        "setup_s": (statistics.median(c for _, c in setup)
                    * calib.REFERENCE_UNIT_S, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def per_layer_metrics(traced, pairs, units):
    """`traced`: (round, its tracer) for each traced round; `pairs`:
    (untraced, traced) wall time of adjacent rounds in cal units; `units`:
    every calibration time of the run.  The tracing overhead is converted
    back to seconds at the run's median calibration time.  Layer times
    include the speed probe's slices, about 5% of any interval."""
    times = {layer: [] for layer in LAYERS}
    shares = {layer: [] for layer in LAYERS}
    for _, tracer in traced:
        spans = tracer.spans
        own = tracing.self_times(spans)
        total = sum(s["end"] - s["start"] for s in spans
                    if s["name"] == "request")
        for layer in LAYERS:
            t = sum(v for s, v in zip(spans, own) if s["name"] == layer)
            times[layer].append(t)
            shares[layer].append(t / total)
    out = {}
    for layer in LAYERS:
        out[layer + ".time_s"] = (statistics.median(times[layer]), "s")
        out[layer + ".share"] = (statistics.median(shares[layer]), "ratio")
    rnd, tracer = traced[0]
    totals = {k: sum(s[k] for s in rnd.sizes) for k in SIZES + ("distinct",)}
    for k in SIZES:
        out[k] = (totals[k], "count")
    out["extract.calls"] = (
        sum(s["name"] == "extract" for s in tracer.spans), "count")
    out["extract.distinct_ratio"] = (
        totals["distinct"] / totals["solver.models"]
        if totals["solver.models"] else 0.0, "ratio")
    for layer in LAYERS:
        out[layer + ".failed"] = (
            sum(s["name"] == layer and s["failed"]
                for _, t in traced for s in t.spans), "count")
    unit = statistics.median(units)
    out["trace.overhead_s"] = (
        statistics.median(t - u for u, t in pairs) * unit, "s")
    out["calib.unit_s"] = (unit, "s")
    return out


# ---------------------------------------------------------------------------
# Driver


def run(name, seed, seconds, trace):
    """One benchmark run.  Returns the tally, the metrics, and raw
    figures printed for readers but not gated: (name, value, unit,
    comment) rows."""
    workload = workloads.WORKLOADS[name]
    requests = workload.requests(seed)
    checks = workloads.checkers(name, requests)
    setup = measure_setup() if not trace else None
    null = tracing.NullTracer()
    rounds, traced, pairs = [], [], []
    tally = Tally()
    start = perf_counter()
    with calib.Probe() as probe:
        while True:
            if trace:
                tracer = tracing.Tracer()
                # alternate which side of a pair runs first
                order = ([null, tracer] if len(pairs) % 2 == 0
                         else [tracer, null])
                walls = {}
                for t in order:
                    rnd = run_round(requests, checks, workload.block, t,
                                    tally, probe)
                    walls[t] = sum(rnd.cal)
                    rounds.append(rnd)
                    if t is tracer:
                        traced.append((rnd, tracer))
                pairs.append((walls[null], walls[tracer]))
            else:
                rounds.append(run_round(requests, checks, workload.block,
                                        null, tally, probe))
            elapsed = perf_counter() - start
            done = len(traced) if trace else len(rounds)
            least = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
            if done >= least and elapsed * (done + 1) / done > seconds:
                break
    units = [u for r in rounds for u in r.units]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (name, seed))
        write_spans(path, [t for _, t in traced], start)
        notes = [("rounds", len(rounds), "count",
                  "%d traced; spans in %s" % (len(traced),
                                              os.path.relpath(path)))]
        return tally, per_layer_metrics(traced, pairs, units), notes
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    distinct = len(rounds[0].seconds)
    notes = [
        ("rounds", len(rounds), "count", ""),
        ("requests", distinct, "count",
         "distinct, each timed in every round; %d beyond p95"
         % (distinct - int(0.95 * distinct))),
        ("wall_s", statistics.median(sum(r.seconds) for r in rounds), "s",
         "raw"),
        ("request_p50_s", statistics.median(
            statistics.median(ts) for ts in zip(*(r.seconds for r in rounds))),
         "s", "raw"),
        ("setup_raw_s", statistics.median(t for t, _ in setup), "s", "raw"),
        ("calib.unit_s", statistics.median(units), "s", ""),
    ]
    return tally, end_to_end_metrics(rounds, setup, peak), notes


def write_spans(path, tracers, origin):
    """All spans of the traced rounds as JSON, times relative to `origin`
    (the start of the run)."""
    rows = []
    for k, tracer in enumerate(tracers):
        rows.extend(dict(s, round=k, start=s["start"] - origin,
                         end=s["end"] - origin) for s in tracer.spans)
    with open(path, "w") as fh:
        json.dump({"spans": rows}, fh)


def report(name, seed, trace, tally, metrics, notes):
    """Print every metric by name and unit, then the result line."""
    print("workload %s  seed %d  trace %d" % (name, seed, trace))
    rows = [(k, v, u, "") for k, (v, u) in metrics.items()] + notes + [
        ("failed_ratio", tally.failed / tally.attempted, "ratio",
         "%d of %d" % (tally.failed, tally.attempted)),
        ("wrong_ratio", tally.wrong / tally.attempted, "ratio",
         "%d of %d" % (tally.wrong, tally.attempted))]
    for key, value, unit, comment in rows:
        print("  %-24s %14.6g %-6s %s" % (key, value, unit, comment))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


def run_all(seed, seconds):
    """Every workload in both modes, each in a fresh interpreter so that
    peak memory is per workload."""
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)], timeout=600)
            status = status or done.returncode
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS)
                    + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    tally, metrics, notes = run(args.workload, args.seed, args.seconds,
                                args.trace)
    report(args.workload, args.seed, args.trace, tally, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
