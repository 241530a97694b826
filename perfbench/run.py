"""newton-mu benchmark: one closed-loop client, three seeded workloads.

    python3 perfbench/run.py --workload nn-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client in one thread sends one request at a time, in
process: a ``newton_mu.cli.run(argv)`` call followed by the ``json.dumps``
that ``cli.main`` does, or one library call.  Inputs come from the
recorded corpus (``corpus/``), chosen and ordered by ``--seed``; every
output is checked against its recorded exact value between requests, off
the timed path.

``--trace 0`` measures the end-to-end metrics over ``--seconds`` seconds
of request time.
``--trace 1`` runs a fixed, seed-determined list of requests twice each,
untraced and then traced, and reports per-layer self times, their shares
of the untraced request time, exact counts and the trace coverage.

Every reported time is scaled to a reference machine speed
(``reference.py``): a fixed kernel runs after every request, off the
timed path, and each request time is multiplied by ``REFERENCE_NS`` over
the median of the kernel times around it.  The raw figures are printed
too.

Human-readable lines come first (metadata, every metric with its unit);
the last line of stdout is the JSON result.  Each run also writes
``out/<workload>-seed<seed>-trace<trace>.json`` next to this file, with the
run metadata, the metrics and, for a traced run, every span.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from reference import (  # noqa: E402
    HALF_WINDOW, REFERENCE_NS, median_reference, speed_factors, time_reference,
)

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 7
# Kernel repeats whose median scales one set-up step.
SETUP_REFERENCE_REPEATS = 11
# Cycles of the request order that one traced run covers, per workload;
# fixed so that the exact counts repeat for a seed.
TRACE_CYCLES = {"nn-sweep": 2, "regions-explicit": 10, "cli-mix": 5}

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import newton_mu.cli; "
    "t = time.perf_counter() - t; import reference; "
    f"print(t, reference.median_reference({SETUP_REFERENCE_REPEATS}))"
)


def _read_loadavg():
    try:
        with open("/proc/loadavg", "r", encoding="ascii") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail_percentile(count: int, pct: int = 90) -> int:
    """pct, or the highest percentile below it that still has at least
    ten samples beyond it (50 when there are too few samples)."""
    while pct > 50 and count * (100 - pct) < 1000:
        pct -= 1
    return pct


def percentile_ms(durations_ns: list[int], pct: int) -> float:
    if len(durations_ns) == 1:
        return durations_ns[0] / 1e6
    cuts = statistics.quantiles(sorted(durations_ns), n=100, method="inclusive")
    return cuts[pct - 1] / 1e6


# ---------------------------------------------------------------------------
# set-up


def load_requests(workload: str, seed: int) -> list[list]:
    import workloads

    corpus = workloads.load_corpus(workload)
    regions = corpus.get("regions", [])
    return [
        [workloads.build_request(spec, regions) for spec in cycle]
        for cycle in workloads.request_order(corpus, seed)
    ]


def measure_setup(workload: str, seed: int) -> tuple[float, list[float]]:
    """Median over repeats of: importing newton_mu.cli in a fresh
    interpreter, plus loading this workload's inputs in process.  The
    import is scaled by the kernel timed in the importing interpreter, the
    load by the kernel timed right after it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        import_s, import_ref_ns = (float(v) for v in proc.stdout.split())
        start = time.perf_counter()
        load_requests(workload, seed)
        load_s = time.perf_counter() - start
        load_ref_ns = median_reference(SETUP_REFERENCE_REPEATS)
        raw.append(import_s + load_s)
        scaled.append((import_s / import_ref_ns + load_s / load_ref_ns) * REFERENCE_NS)
    return statistics.median(scaled), raw


# ---------------------------------------------------------------------------
# running requests


def call_request(request):
    """Run one request; an exception is an output that fails its check."""
    try:
        return request.call()
    except Exception as exc:  # a raising request counts as failed
        return exc


def check(request, output, bad: list[str]) -> None:
    """Compare an output with its recorded value; runs between requests,
    off the timed path, so outputs are not kept."""
    if isinstance(output, Exception):
        bad.append(f"{request.label}: {output!r}")
    elif not request.correct(output):
        bad.append(f"{request.label}: wrong value")


def run_untraced(cycles, seconds: float) -> dict:
    """Whole cycles until ``seconds`` of raw request time have passed.
    Stopping only at a cycle's end keeps every run's mix of request sizes
    the same, so the count and the percentiles do not depend on where a
    run was cut.  A reference time follows every request."""
    durations, reference_ns, cycle_ns, bad = [], [], [], []
    clock = time.perf_counter_ns
    budget = int(seconds * 1e9)
    for _ in range(2 * HALF_WINDOW):  # warm up the kernel
        time_reference()
    for c in itertools.count():
        cycle_start = len(durations)
        for request in cycles[c % len(cycles)]:
            t0 = clock()
            output = call_request(request)
            durations.append(clock() - t0)
            check(request, output, bad)
            reference_ns.append(time_reference())
        cycle_ns.append(sum(durations[cycle_start:]))
        if sum(cycle_ns) >= budget:
            break
    scaled = [d * f for d, f in zip(durations, speed_factors(reference_ns))]
    return {"durations": durations, "scaled": scaled, "reference_ns": reference_ns,
            "cycle_ns": cycle_ns, "bad": bad}


def run_traced(cycles, trace_cycles: int):
    from tracer import Tracer

    tracer = Tracer()
    untraced_ns = 0
    bad: list[str] = []
    reference_ns = [time_reference() for _ in range(2 * HALF_WINDOW)]
    requests = [r for cycle in cycles[:trace_cycles] for r in cycle]
    for rid, request in enumerate(requests):
        t0 = time.perf_counter_ns()
        output = call_request(request)
        untraced_ns += time.perf_counter_ns() - t0
        check(request, output, bad)
        tracer.request = rid
        tracer.install()
        try:
            output = call_request(request)
        finally:
            tracer.uninstall()
        check(request, output, bad)
        reference_ns.append(time_reference())
    return tracer, untraced_ns, 2 * len(requests), bad, reference_ns


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def end_to_end(workload: str, seed: int, seconds: float, lines: list[str]):
    setup_s, setup_samples = measure_setup(workload, seed)
    cycles = load_requests(workload, seed)
    result = run_untraced(cycles, seconds)
    durations, scaled, bad = result["durations"], result["scaled"], result["bad"]
    count = len(durations)
    pct = tail_percentile(count)
    p50 = percentile_ms(scaled, 50)
    p90 = percentile_ms(scaled, pct)
    metrics = {
        "throughput_rps": _metric(count / (sum(scaled) / 1e9), "1/s"),
        "request_ms.p50": _metric(p50, "ms"),
        "request_ms.p90": _metric(p90, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beyond = sum(1 for d in scaled if d / 1e6 > p90)
    lines.append(f"# samples: {count} requests; request_ms.p90 is p{pct}"
                 f" ({beyond} samples beyond it)")
    reference_ms = statistics.median(result["reference_ns"]) / 1e6
    lines.append(f"# raw (unscaled): throughput_rps {count / (sum(durations) / 1e9):.4f},"
                 f" request_ms.p50 {percentile_ms(durations, 50):.3f},"
                 f" request_ms.p{pct} {percentile_ms(durations, pct):.3f};"
                 f" reference kernel median {reference_ms:.4f} ms"
                 f" (scaled to {REFERENCE_NS / 1e6:g} ms)")
    lines.append(f"# failed_ratio: {len(bad) / count:.6f} ratio ({len(bad)} of {count})")
    lines.append("# setup_s raw samples: " + ", ".join(f"{v:.4f}" for v in setup_samples))
    return metrics, count, bad, {"request_ns": durations, "scaled_request_ns": scaled,
                                 "reference_ns": result["reference_ns"],
                                 "cycle_ns": result["cycle_ns"]}


def per_layer(workload: str, seed: int, lines: list[str]):
    from tracer import LAYERS

    cycles = load_requests(workload, seed)
    tracer, untraced_ns, attempted, bad, reference_ns = run_traced(
        cycles, TRACE_CYCLES[workload])
    factor = REFERENCE_NS / statistics.median(reference_ns)
    metrics = {}
    total_self = 0
    for name, _, _ in LAYERS:
        ns = tracer.self_ns[name]
        total_self += ns
        metrics[f"{name}_ms"] = _metric(ns * factor / 1e6, "ms")
        metrics[f"{name}_share"] = _metric(ns / untraced_ns, "ratio")
    metrics["polyhedra.facets"] = _metric(tracer.counts["polyhedra.facets"], "count")
    metrics["geometry.simplices"] = _metric(tracer.counts["geometry.simplices"], "count")
    metrics["trace.coverage"] = _metric(total_self / untraced_ns, "ratio")
    lines.append(f"# traced requests: {attempted // 2}; untraced request time"
                 f" {untraced_ns / 1e6:.1f} ms raw; spans {len(tracer.spans)};"
                 f" layer times scaled by {factor:.4f}")
    spans = [{"name": n, "start_ns": s, "end_ns": e, "request": r} for n, s, e, r in tracer.spans]
    return metrics, attempted, bad, {"spans": spans}


def main(argv=None) -> int:
    if not (SRC / "newton_mu" / "__init__.py").is_file():
        print(f"error: no newton_mu sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(sys.argv[1:] if argv is None else argv)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _read_loadavg(),
    }
    lines: list[str] = []
    if args.trace:
        metrics, attempted, bad, extra = per_layer(args.workload, args.seed, lines)
    else:
        metrics, attempted, bad, extra = end_to_end(args.workload, args.seed, args.seconds, lines)
    meta["loadavg_end"] = _read_loadavg()

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics, "failures": bad, **extra}, fh)

    print("# meta: " + json.dumps(meta))
    for line in lines:
        print(line)
    for failure in bad:
        print(f"# FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": len(bad), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
