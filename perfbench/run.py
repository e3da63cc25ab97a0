"""powerchroma benchmark: one workload, end-to-end metrics or a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload survey-witness --seed 1 --seconds 30 --trace 0

Load is a closed loop: one caller, one group at a time, in one child
process, no threads. The child imports powerchroma from ``src/``; setup is
timed from starting a child until it reports that the package is imported and
the inputs are ready, over several children, and the median is reported.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``setup_s``, ``wall_s``, ``group_ms.p90``, ``peak_rss_mb``; ``group_ms.p50``
and the sample count are printed above it);
with ``--trace 1`` it carries the per-layer metrics of traced passes, and the
spans are written to ``.perfbench_out/``. Failures against attempts are the
``failed``/``attempted`` fields and the ``failed_frac`` summary line. The
exit code is nonzero, with no result line, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("survey-witness", "color-large-odd", "classify-sweep")
SETUP_SAMPLES = 11
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "group_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "groups.construct_ms": "ms",
    "groups.validate_ms": "ms",
    "groups.validate_calls": "count",
    "groups.count": "count",
    "powergraph.build_ms": "ms",
    "powergraph.build_calls": "count",
    "powergraph.graphs": "count",
    "powergraph.graphs_per_group": "ratio",
    "overfull.analyze_ms": "ms",
    "coloring.construct_ms": "ms",
    "coloring.verify_ms": "ms",
    "coloring.write_ms": "ms",
    "coloring.write_bytes": "bytes",
    "coloring.read_ms": "ms",
    "coloring.read_verify_ms": "ms",
    "exchange.color_ms": "ms",
    "exchange.dispatch_self_ms": "ms",
    "exchange.attempts": "count",
    "exchange.exchanges": "count",
    "exchange.attempts_per_exchange": "ratio",
    "exchange.inversions": "count",
    "exchange.restores": "count",
    "oracle.search_ms": "ms",
    "oracle.nodes": "count",
    "toolkit.self_ms": "ms",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The program could not be run or gave no result."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "small"),
                        help="small shrinks every workload for the harness self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "powerchroma" / "__init__.py").is_file():
        print(f"error: no src/powerchroma package under {root}", file=sys.stderr)
        return 2
    try:
        result, setup = _run(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report(args, result, setup)
    return 0


def _run(args, root: Path) -> tuple[dict, list[float]]:
    deadline = perf_counter() + TIME_LIMIT_S
    base = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size]
    # The first child also fills the bytecode caches; it is not timed.
    _Child(base + ["--setup-only"], root, deadline).finish(deadline)
    setup: list[float] = []
    for _ in range(SETUP_SAMPLES - 1):
        child = _Child(base + ["--setup-only"], root, deadline)
        setup.append(child.setup_s)
        child.finish(deadline)
    command = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        command += ["--spans-out", str(spans_path)]
    child = _Child(command, root, deadline)
    setup.append(child.setup_s)
    lines = child.finish(deadline).splitlines()
    if not lines:
        raise BenchError("the benchmark child printed no result")
    try:
        return json.loads(lines[-1]), setup
    except ValueError as exc:
        raise BenchError(f"unreadable child result: {exc}") from exc


class _Child:
    """One child process; ``setup_s`` is the time from start to its ready line."""

    def __init__(self, command: list[str], root: Path, deadline: float):
        env = dict(os.environ)
        env.pop("POWERCHROMA_SEED", None)  # the program runs on its defaults
        started = perf_counter()
        self.proc = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE,
                                     bufsize=0)
        try:
            self.rest = self._read_ready(deadline)
        except BaseException:
            self.kill()
            raise
        self.setup_s = perf_counter() - started

    def _read_ready(self, deadline: float) -> bytes:
        fd = self.proc.stdout.fileno()
        buf = b""
        while b"\n" not in buf:
            remaining = deadline - perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise BenchError("the benchmark child did not become ready in time")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BenchError(f"the benchmark child exited before ready "
                                 f"(code {self.proc.wait()})")
            buf += chunk
        first, _, rest = buf.partition(b"\n")
        if first.strip() != b"ready":
            raise BenchError(f"unexpected first line from the child: {first[:200]!r}")
        return rest

    def finish(self, deadline: float) -> str:
        """Wait for the child to exit and return the rest of its stdout."""
        try:
            out, _ = self.proc.communicate(timeout=max(deadline - perf_counter(), 0.1))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("the benchmark child overran the time limit") from None
        except BaseException:
            self.kill()
            raise
        if self.proc.returncode != 0:
            raise BenchError(f"the benchmark child exited with code {self.proc.returncode}")
        return (self.rest + out).decode("utf-8")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _report(args, result: dict, setup: list[float]) -> None:
    passes = result["passes"]
    failures = [f for p in passes for f in p["failures"]]
    errors = [e for p in passes for e in p["errors"]]
    attempted = sum(p["attempted"] for p in passes)
    timed = [p for p in passes if not p["traced"]]
    latencies = [x for p in timed for x in p["latencies_ms"]]

    if args.trace:
        layers = result["layers"]
        metrics = {name: {"value": layers.get(name), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        p50, p90 = _percentiles(latencies)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall_s"] for p in timed),
            "group_ms.p90": p90,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    digests = sorted({p["digest"] for p in passes})
    print(f"environment: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"src.lines {result['src_lines']}")
    print(f"workload {args.workload} (seed {args.seed}, size {args.size}): "
          f"{len(timed)} untraced and {len(passes) - len(timed)} traced passes")
    for name, metric in metrics.items():
        print(f"  {name:32s} {_fmt(metric['value'])} {metric['unit']}")
    if not args.trace:
        # p50 is printed, not gated: the mid-size groups run in one stretch of
        # the pass, so it follows host contention there and spreads too widely.
        print(f"  group_ms.p50 {_fmt(p50)} ms, samples {len(latencies)}")
    print(f"failed_frac: {len(failures) / attempted if attempted else 0:.6g} "
          f"({len(failures)} of {attempted} groups failed)")
    print(f"digest: {', '.join(digests)} ({_digest_note(args, digests)})")
    if args.trace:
        if not result.get("counters_repeat", True):
            print("note: counters differ between traced passes")
        print(f"spans: .perfbench_out/spans-{args.workload}-seed{args.seed}.json")
    for line in (errors + failures)[:20]:
        print(f"failure: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


def _percentiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        value = samples[0] if samples else 0.0
        return value, value
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return statistics.median(samples), deciles[8]


def _digest_note(args, digests: list[str]) -> str:
    if len(digests) != 1:
        return "differs between passes"
    baseline_path = HERE / "baseline.json"
    if args.size != "full" or not baseline_path.is_file():
        return "no baseline"
    recorded = json.loads(baseline_path.read_text(encoding="utf-8"))["digests"].get(args.workload)
    if recorded is None:
        return "no baseline"
    return "same as baseline" if recorded == digests[0] else "differs from baseline"


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


if __name__ == "__main__":
    sys.exit(main())
