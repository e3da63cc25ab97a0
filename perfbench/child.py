"""Benchmark child process: import powerchroma from ``src/``, report ready, run passes.

Started by ``run.py`` from the root of a checkout. It prints ``ready`` once
the package is imported and the workload's inputs are built; with
``--setup-only`` it exits there. Otherwise it runs passes of the workload,
closed loop, until the next pass would overrun ``--seconds`` (at least one
pass; in traced mode at least one untraced and one traced pass), and prints
one JSON line with the results.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import powerchroma  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spans-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    package = Path(powerchroma.__file__).resolve()
    if SRC.resolve() not in package.parents:
        print(f"error: powerchroma imported from {package}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, args.size)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    untraced: list = []
    traced: list = []
    done: list[tuple[bool, object]] = []
    layer_runs: list[dict] = []
    span_dump: list = []
    null = spans.NullTracer()
    started = perf_counter()
    while True:
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        gc.collect()
        if trace_this:
            tracer = spans.Tracer()
            tracer.install()
            try:
                result = workload.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append(result)
            done.append((True, result))
            layers = tracer.layer_metrics(result.attempted)
            layers["oracle.nodes"] = result.oracle_nodes
            layer_runs.append(layers)
            span_dump.append(tracer.span_records())
        else:
            result = workload.run_pass(null)
            untraced.append(result)
            done.append((False, result))
        elapsed = perf_counter() - started
        if args.trace and not traced:
            continue
        if elapsed + result.wall_s > args.seconds:
            break

    if args.spans_out and span_dump:
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": span_dump}, fh)

    out = {
        "passes": [
            {
                "traced": was_traced,
                "wall_s": r.wall_s,
                "latencies_ms": r.latencies_ms,
                "attempted": r.attempted,
                "failures": r.failures,
                "errors": r.errors,
                "digest": r.digest,
            }
            for was_traced, r in done
        ],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "src_lines": _src_lines(),
    }
    if traced:
        out["layers"] = _median_layers(layer_runs)
        out["counters_repeat"] = _counters_repeat(layer_runs)
        traced_wall = statistics.median(r.wall_s for r in traced)
        untraced_wall = statistics.median(r.wall_s for r in untraced)
        out["layers"]["trace.wall_s"] = traced_wall
        out["layers"]["trace.untraced_wall_s"] = untraced_wall
        out["layers"]["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    print(json.dumps(out), flush=True)
    return 0


def _median_layers(runs: list[dict]) -> dict:
    """Median of each timing over the traced passes; counters from the first pass."""
    out = {}
    for name, first in runs[0].items():
        values = [run[name] for run in runs]
        if None in values:
            out[name] = None
        elif isinstance(first, int):
            out[name] = first
        else:
            out[name] = statistics.median(values)
    return out


def _counters_repeat(runs: list[dict]) -> bool:
    """True when every integer counter read the same in every traced pass."""
    first = runs[0]
    return all(
        run[name] == first[name]
        for run in runs[1:]
        for name in first
        if isinstance(first[name], int)
    )


def _src_lines() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


if __name__ == "__main__":
    sys.exit(main())
