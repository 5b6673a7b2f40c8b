"""Seeded end-to-end benchmark of osimplex.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {factor,decide,cells,cli} --seed N \
        --seconds S --trace {0,1}

One client runs the workload's operations in a closed loop, in a fixed
order, round and round over a corpus built from the seed, until S seconds
have passed and at least one whole pass is done.  Every operation's output
is checked; a failed check or an exception counts as a failed operation.
Between operations a fixed calibration loop that does not touch the library
is timed about every 50 ms of work, and each operation's CPU time is also
given in units of the calibration loop's CPU time around it ("cal"), which
cancels the changes in speed that a shared host imposes on the process.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json,
`end_to_end`); the same figures in ms and 1/s are printed on the lines
before it.  With --trace 1 the run first measures untraced operations
for half of S, then exactly one pass with the tracer installed, and reports
the per-layer metrics (BENCHMARK.json, `per_layer`) of that pass together
with the tracing overhead.  Spans of the traced pass are written to
.bench_out/spans-<workload>.{json,bin}.

The library is imported from the checkout's `src/`; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
import types

import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
MODULES = ("simplex", "zdelta", "chains", "oriental", "nu", "cli")
BUILDERS = {
    "factor": workloads.build_factor,
    "decide": workloads.build_decide,
    "cells": workloads.build_cells,
    "cli": workloads.build_cli,
}
# Set-up (import, corpus build, warm-up) is repeated and its median reported.
SETUP_REPEATS = 5
# The calibration loop runs after each CAL_EVERY_S CPU seconds of
# operations, and an operation is scaled by the median of the CAL_WINDOW
# calibration samples nearest to it.
CAL_EVERY_S = 0.05
CAL_WINDOW = 8

PER_LAYER = {
    "simplex.MonotoneMap.created": "count",
    "simplex.compose.calls": "count",
    "simplex.enumerate_injective_into.calls": "count",
    "zdelta.ZMorphism.created": "count",
    "zdelta.ZMorphism.compose.calls": "count",
    "zdelta.ZMorphism.compose.self_ms": "ms",
    "zdelta.ZMorphism.face.calls": "count",
    "zdelta.ZMorphism.degeneracy.calls": "count",
    "chains.Chain.created": "count",
    "chains.Chain.boundary.calls": "count",
    "chains.to_chain_map.self_ms": "ms",
    "chains.from_chain_map.self_ms": "ms",
    "chains.ChainMapTable.validate.self_ms": "ms",
    "chains.check_unital.self_ms": "ms",
    "oriental.check_membership.calls": "count",
    "oriental.check_membership.self_ms": "ms",
    "oriental.first_last.calls": "count",
    "oriental.first_last.distinct_ratio": "ratio",
    "oriental.split.calls": "count",
    "oriental.simplify.self_ms": "ms",
    "oriental.Expr.evaluate.calls": "count",
    "nu.enumerate_cells.self_ms": "ms",
    "nu.enumerate_cells.yield_ratio": "ratio",
    "nu.check_atom_generation.self_ms": "ms",
    "nu.Cell.compose.calls": "count",
    "nu.closure.yield_ratio": "ratio",
    "nu.act.self_ms": "ms",
    "cli.spawn_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "factor.id4.first_last.calls": "count",
    "factor.id4.first_last.distinct": "count",
    "factor.id4.check_membership.calls": "count",
    "cells.n4.enumerate_cells.self_ms": "ms",
    "cells.n4.check_atom_generation.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "host.calibration_ms": "ms",
}


def cpu_time():
    """CPU seconds used so far by this process and its finished children.

    Operations are timed in CPU time: every operation is single-threaded and
    CPU-bound (a cli operation is one child process, waited for), so on an
    idle host this equals wall time, while on a shared host it leaves out the
    time other tenants hold the CPU."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def import_library():
    """Import the package afresh from the checkout's source tree."""
    for name in [k for k in sys.modules if k == "osimplex" or k.startswith("osimplex.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("osimplex")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "osimplex"):
        raise ImportError(f"osimplex was imported from {pkg.__file__}, not from {SRC}")
    lib = types.SimpleNamespace(pkg=pkg)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"osimplex.{name}"))
    return lib


def set_up(workload, seed):
    """Import, build the seeded corpus and warm up; returns (CPU seconds, lib, workload)."""
    started = cpu_time()
    lib = import_library()
    rng = random.Random(f"{workload}:{seed}")
    built = BUILDERS[workload](lib, rng, ROOT)
    for label, fn in built.warmup:
        ok, _ = fn()
        if not ok:
            raise RuntimeError(f"warm-up operation {label} failed its check")
    return cpu_time() - started, lib, built


def calibration_loop():
    """Fixed pure-Python work of the library's kind (small tuples, dict
    updates, a sort) that does not call the library.  Its CPU time tracks
    the speed the host gives the process at that moment."""
    counts = {}
    for i in range(4000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + i
    return sorted(counts.items())


def calibrate():
    t0 = cpu_time()
    calibration_loop()
    return cpu_time() - t0


def run_ops(ops, seconds, tracer=None, passes=None):
    """Run the operations in order, round and round, until `seconds` have
    passed and at least one whole pass is done (or exactly `passes` whole
    passes), timing the calibration loop between them.  Returns each
    operation's samples (CPU seconds, number of calibrations before it),
    the calibration times, the failures and the first pass's outputs."""
    samples = [[] for _ in ops]
    calibrations = [calibrate()]
    failures, outputs = [], []
    started = time.perf_counter()
    since = 0.0
    done = 0

    def result():
        calibrations.append(calibrate())
        return {"samples": samples, "calibrations": calibrations,
                "failures": failures, "outputs": outputs}

    while True:
        for index, (label, fn) in enumerate(ops):
            if passes is None and done and time.perf_counter() - started >= seconds:
                return result()
            if tracer is not None:
                tracer.op = index
            t0 = cpu_time()
            try:
                ok, output = fn()
            except Exception as exc:  # a failed operation is counted, not fatal
                ok, output = False, f"exception {type(exc).__name__}: {exc}"
            elapsed = cpu_time() - t0
            samples[index].append((elapsed, len(calibrations)))
            if not ok:
                failures.append(f"{label}: {output.splitlines()[0] if output else ''}")
            if not done:
                outputs.append(f"{label}\t{output}")
            since += elapsed
            if since >= CAL_EVERY_S:
                calibrations.append(calibrate())
                since = 0.0
        done += 1
        if passes is not None and done >= passes:
            return result()


def per_op(run, scaled):
    """Each operation's median latency over its runs: in ms, or with
    `scaled` in cal, each run divided by the median of the calibration
    samples nearest to it.  The first pass warms up (it grows the heap and
    fills caches), so it is left out of an operation that ran at least
    three times.  The median keeps a burst of interference from other
    processes out of the figures, and counting each operation once keeps a
    partial last pass from changing the mix."""
    cal = run["calibrations"]
    half = CAL_WINDOW // 2

    def unit(k):
        if not scaled:
            return 1e-3
        lo = max(0, min(k - half, len(cal) - CAL_WINDOW))
        return statistics.median(cal[lo:lo + CAL_WINDOW])

    return [
        statistics.median(t / unit(k) for t, k in (op[1:] if len(op) >= 3 else op))
        for op in run["samples"]
    ]


def figures(run, scaled):
    """(throughput, p50, p90): operations per unit time of a pass at each
    operation's median latency, and percentiles over the operations."""
    lat = per_op(run, scaled)
    per_second = 1.0 if scaled else 1e3
    return (
        len(lat) / (sum(lat) / per_second),
        statistics.median(lat),
        statistics.quantiles(lat, n=10)[8],
    )


def calibration_ms(run):
    return statistics.median(run["calibrations"]) * 1e3


def end_to_end(run, setup_times):
    throughput, p50, p90 = figures(run, scaled=True)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_ops_cal": (throughput, "1/cal"),
        "latency_p50_cal": (p50, "cal"),
        "latency_p90_cal": (p90, "cal"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def unscaled(run):
    """The end-to-end timings in ms and 1/s, printed for reading only."""
    throughput, p50, p90 = figures(run, scaled=False)
    return {
        "throughput_ops_s": (throughput, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "calibration_ms": (calibration_ms(run), "ms"),
    }


def per_layer(tr, built, traced, overhead):
    counts = tr.counts
    calls = tr.calls_by_name
    values = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name in counts:
            values[name] = counts[name]
        elif name.endswith(".calls") and name[:-6] in calls:
            values[name] = calls[name[:-6]]
        elif name.endswith(".self_ms"):
            values[name] = tr.self_ms(name[:-8])
    fl_calls = calls.get("oriental.first_last", 0)
    if fl_calls:
        distinct = set().union(*tr.first_last_inputs.values())
        values["oriental.first_last.distinct_ratio"] = len(distinct) / fl_calls
    inner = tr.inner["nu.enumerate_cells"]
    if inner.get("chains.Chain.boundary.calls"):
        values["nu.enumerate_cells.yield_ratio"] = (
            counts["nu.enumerate_cells.cells"] / inner["chains.Chain.boundary.calls"]
        )
    inner = tr.inner["nu.check_atom_generation"]
    if inner.get("nu.Cell.compose.calls"):
        values["nu.closure.yield_ratio"] = (
            inner["nu.enumerate_cells.cells"] / inner["nu.Cell.compose.calls"]
        )
    labels = {label: i for i, (label, _) in enumerate(built.ops)}
    if "id4" in labels:
        op = labels["id4"]
        values["factor.id4.first_last.calls"] = tr.calls_by_op[("oriental.first_last", op)]
        values["factor.id4.first_last.distinct"] = len(tr.first_last_inputs[op])
        values["factor.id4.check_membership.calls"] = tr.calls_by_op[("oriental.check_membership", op)]
    if "enumerate4" in labels:
        values["cells.n4.enumerate_cells.self_ms"] = tr.self_ms("nu.enumerate_cells", labels["enumerate4"])
    if "atoms4" in labels:
        values["cells.n4.check_atom_generation.self_ms"] = tr.self_ms(
            "nu.check_atom_generation", labels["atoms4"]
        )
    if built.cli is not None and built.cli.timings:
        for key in ("spawn_ms", "import_ms", "main_ms"):
            values[f"cli.{key}"] = statistics.median(t[key] for t in built.cli.timings)
    values["trace.overhead_ratio"] = overhead
    values["host.calibration_ms"] = calibration_ms(traced)
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def report(metrics, runs, digest_lines, workload, readable=None):
    attempted = sum(len(op) for r in runs for op in r["samples"])
    failures = [f for r in runs for f in r["failures"]]
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    digest = hashlib.sha256("\n".join(digest_lines).encode("utf-8")).hexdigest()
    print(f"workload {workload}: {attempted} operations, "
          f"{len(failures)} failed, error_rate {len(failures) / attempted:.6g}")
    print(f"digest {workload} sha256:{digest} ({len(digest_lines)} outputs of the first pass)")
    for name, (value, unit) in {**(readable or {}), **metrics}.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            seconds, lib, built = set_up(args.workload, args.seed)
            setup_times.append(seconds)
    except ImportError as exc:
        print(f"cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2

    if not args.trace:
        run = run_ops(built.ops, args.seconds)
        report(end_to_end(run, setup_times), [run], run["outputs"], args.workload,
               unscaled(run))
        return 0

    untraced = run_ops(built.ops, args.seconds / 2)
    tr = tracing.Tracer()
    if built.cli is None:
        tr.install(lib)
    else:
        # The library runs in the children; the parent only checks outputs.
        built.cli.probe = True
    try:
        traced = run_ops(built.ops, 0, tracer=tr, passes=1)
    finally:
        tr.uninstall()
        if built.cli is not None:
            built.cli.probe = False
    tr.finish()
    tr.write(os.path.join(OUT_DIR, f"spans-{args.workload}"))
    overhead = figures(traced, scaled=True)[0] / figures(untraced, scaled=True)[0]
    metrics = per_layer(tr, built, traced, overhead)
    report(metrics, [untraced, traced], traced["outputs"], args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
