#!/usr/bin/env python3
"""Benchmark of the betatails library and CLI, run from the repository root:

    python3 perfbench/run.py --workload paper-compare --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
paper-compare, chernoff-sweep, shape-queries. Each runs single-threaded in
this one process against the library under ./src, never an installed copy.

Set-up imports the library afresh, generates the seeded inputs and runs
a fixed warm-up. With --trace 0 the run then times operations until
--seconds have passed, checks every output, and prints the end-to-end
metrics. It sets up SETUP_REPEATS times, once before the first operation
and the others spread evenly over the run, and `setup_s` is the median:
a shared machine's speed can drift over seconds, and set-ups made back
to back would all see the same moment of it. Operations after a set-up
use the library it imported. With --trace 1 the run sets up once, then
alternates a traced and an untraced pass over the first operations of
the same input set until --seconds have passed, prints the per-layer
metrics per operation, the tracing overhead, and writes every span to
perfbench/out/. A ratio whose base may be zero on a workload, such as
cgf calls per solve, is reported as its numerator per operation next to
its base per operation, and printed as a ratio only where the base is
not zero.

An operation's latency covers only the library calls, not their checks.
ops_per_s is the median over blocks of consecutive operations of the
block's throughput, op_p50_ms and op_p90_ms are quantiles of all the run's
latencies, peak_rss_mb is the process's peak resident set size.

Human-readable lines come first. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The
metric names and units are those listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
LAYERS = ("specfun", "moments", "bounds", "chernoff", "cli")
SETUP_REPEATS = 9
SOLVE = "chernoff.chernoff_exponent_numeric"
PROXY = "bounds.subgaussian_optimal_proxy"
CGF = "chernoff.cgf"
# functions whose call count and self time per operation the traced run reports
TRACED_FUNCTIONS = (
    PROXY,
    SOLVE,
    CGF,
    "specfun.log_kummer_1f1",
    "specfun.regularized_incomplete_beta",
    "specfun.log_gamma",
    "bounds.exact_tail",
    "bounds.sub_gamma_params",
    "bounds.bernstein_tail_bound",
    "moments.central_moments_recursive",
)
# CLI functions run a fixed number of times per operation: self time only
CLI_FUNCTIONS = ("cli.main", "cli.comparison_rows", "cli.render_csv")


def import_library():
    """Import betatails from SRC afresh, dropping any copy already imported."""
    for name in [m for m in sys.modules if m == "betatails" or m.startswith("betatails.")]:
        del sys.modules[name]
    package = importlib.import_module("betatails")
    if Path(package.__file__).resolve().parent != (SRC / "betatails").resolve():
        raise ImportError(f"betatails imported from {package.__file__}, not from {SRC}")
    layers = {name: importlib.import_module(f"betatails.{name}") for name in LAYERS}
    return SimpleNamespace(package=package, layers=layers, **layers)


# each takes a scratch directory of the run's own
WORKLOADS = {
    "paper-compare": workloads.PaperCompare,
    "chernoff-sweep": lambda work_dir: workloads.ChernoffSweep(),
    "shape-queries": lambda work_dir: workloads.ShapeQueries(),
}


def set_up(workload, seed: int):
    """Import the library afresh, generate the inputs and warm up; return
    the library, the inputs and the time taken."""
    start = time.perf_counter()
    lib = import_library()
    inputs = workload.inputs(lib, seed, workload.pool_size)
    for inp in workload.warmup(lib):
        workload.run(lib, inp)
    elapsed = time.perf_counter() - start
    gc.collect()  # the replaced modules, so that no timed operation collects them
    return lib, inputs, elapsed


class Tally:
    """Operations attempted and failed; the first failures go to stderr."""

    SHOWN = 3

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def execute(self, workload, lib, inp, tracer=None) -> float:
        """Run one operation, check it, and return its time in seconds."""
        error = None
        if tracer is not None:
            tracer.op += 1
            tracer.install()
        start = time.perf_counter()
        try:
            out = workload.run(lib, inp)
        except Exception:
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        if error is None:
            try:
                error = workload.check(lib, inp, out)
            except Exception:  # output too malformed to check
                error = traceback.format_exc()
        self.attempted += 1
        if error:
            self.failed += 1
            if self.failed <= self.SHOWN:
                print(f"operation failed: {error}", file=sys.stderr)
        return elapsed


def throughput(latencies: list[float], block: int) -> float:
    """Operations per second: the median over whole blocks of `block`
    consecutive operations, so a stall of the machine moves few blocks."""
    sums = [math.fsum(latencies[i : i + block])
            for i in range(0, len(latencies) - block + 1, block)]
    if not sums:
        return len(latencies) / math.fsum(latencies)
    return block / statistics.median(sums)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ratio(numerator: int, base: int) -> str:
    return repr(numerator / base) if base else "n/a"


def measure(workload, seed: int, seconds: float, tally: Tally):
    lib, inputs, elapsed = set_up(workload, seed)
    setup_times = [elapsed]
    latencies = []
    start = time.perf_counter()
    while True:
        inp = inputs[len(latencies) % len(inputs)]
        latencies.append(tally.execute(workload, lib, inp))
        now = time.perf_counter()
        if now >= start + seconds:
            break
        if now >= start + seconds * len(setup_times) / SETUP_REPEATS:
            lib, inputs, elapsed = set_up(workload, seed)
            setup_times.append(elapsed)
    while len(setup_times) < SETUP_REPEATS:  # runs shorter than SETUP_REPEATS operations
        setup_times.append(set_up(workload, seed)[2])
    return {
        "ops_per_s": (throughput(latencies, workload.block), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (p90(latencies) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }, [f"timed operations {len(latencies)}, set-ups {len(setup_times)}"]


def measure_traced(workload, lib, inputs, seconds: float, tally: Tally, spans_path):
    tracer = Tracer(lib.package, lib.layers, observe={SOLVE: lambda result: not result.converged})
    ops = inputs[: workload.trace_ops]
    traced = untraced = 0.0
    rounds = 0
    deadline = time.perf_counter() + seconds
    while True:
        # alternate which pass goes first, so neither gains from going second
        for traced_pass in (True, False) if rounds % 2 == 0 else (False, True):
            elapsed = math.fsum(
                tally.execute(workload, lib, inp, tracer if traced_pass else None) for inp in ops
            )
            if traced_pass:
                traced += elapsed
            else:
                untraced += elapsed
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    n = rounds * len(ops)
    calls = dict(zip(tracer.names, tracer.calls))
    self_s = {name: ns * 1e-9 / n for name, ns in zip(tracer.names, tracer.self_ns)}
    metrics = {}
    for name in TRACED_FUNCTIONS:
        metrics[f"{name}.calls"] = (calls[name] / n, "calls/op")
        metrics[f"{name}.self_s"] = (self_s[name], "s/op")
    for name in CLI_FUNCTIONS:
        metrics[f"{name}.self_s"] = (self_s[name], "s/op")
    for layer in LAYERS:
        layer_s = math.fsum(v for k, v in self_s.items() if k.startswith(layer + "."))
        metrics[f"layer.{layer}.self_s"] = (layer_s, "s/op")
    proxies, solves = calls[PROXY], calls[SOLVE]
    proxy_cgf, solve_cgf = tracer.nested_calls(CGF, PROXY), tracer.nested_calls(CGF, SOLVE)
    unconverged = tracer.tallies[tracer.index(SOLVE)]
    metrics[f"{PROXY}.cgf_calls"] = (proxy_cgf / n, "calls/op")
    metrics[f"{SOLVE}.cgf_calls"] = (solve_cgf / n, "calls/op")
    metrics[f"{SOLVE}.unconverged"] = (unconverged / n, "calls/op")
    metrics["trace.ops_per_s"] = (n / traced, "1/s")
    metrics["trace.untraced_ops_per_s"] = (n / untraced, "1/s")
    metrics["trace.overhead"] = (traced / untraced, "ratio")

    tracer.write_csv(spans_path)
    lines = [
        f"traced rounds {rounds} of {len(ops)} operations, "
        f"spans {len(tracer.spans)} in {spans_path.relative_to(ROOT)}",
        f"cgf calls per proxy {ratio(proxy_cgf, proxies)} over {proxies} proxies",
        f"cgf calls per solve {ratio(solve_cgf, solves)} over {solves} solves",
        f"converged ratio {ratio(solves - unconverged, solves)} over {solves} solves",
        "self time per operation, every traced function that ran:",
    ]
    for name in sorted(self_s, key=self_s.get, reverse=True):
        if calls[name]:
            lines.append(f"  {name:45s} {calls[name] / n:12.3f} calls/op {self_s[name]:.6e} s/op")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "betatails" / "__init__.py").is_file():
        print(f"no betatails sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))

    OUT.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT) as work_dir:
        workload = WORKLOADS[args.workload](Path(work_dir))
        if args.trace:
            lib, inputs, _ = set_up(workload, args.seed)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            metrics, lines = measure_traced(workload, lib, inputs, args.seconds, tally, spans_path)
        else:
            metrics, lines = measure(workload, args.seed, args.seconds, tally)

    error_rate = tally.failed / tally.attempted
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for line in lines + workload.report():
        print(line)
    print(f"attempted {tally.attempted} failed {tally.failed} error_rate {error_rate!r} ratio")
    result = {}
    for entry in listed:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']} is measured in {unit}, listed in {entry['unit']}")
        print(f"metric {entry['name']} {value!r} {unit}")
        result[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
