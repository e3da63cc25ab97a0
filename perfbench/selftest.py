"""Self-test of the benchmark harness on shrunk workloads.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Every workload runs at size "small" (catalog order 12; two small groups for
color-large-odd), untraced and traced. The test checks that each metric named
in BENCHMARK.json is emitted with its unit and a number, that no group failed,
that two traced runs give identical counters, and that the benchmark exits
nonzero without a result line in a directory that holds only BENCHMARK.json
and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
EXACT_UNITS = {"count", "bytes"}


def _run(workload: str, trace: int, seed: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc, problems: list[str], label: str) -> dict | None:
    if proc.returncode != 0:
        problems.append(f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    if "failed_frac: 0 " not in proc.stdout:
        problems.append(f"{label}: failed_frac is not 0")
    return result


def _check_metrics(result: dict, declared: list[dict], problems: list[str], label: str) -> None:
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{label}: metrics {got} differ from BENCHMARK.json {expected}")
    for name, metric in result["metrics"].items():
        if isinstance(metric.get("value"), bool) or not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value ({metric.get('value')!r})")


def _check_bare_directory(problems: list[str]) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "classify-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        result = _result(_run(workload, 0, 1), problems, f"{workload} untraced")
        if result:
            _check_metrics(result, spec["end_to_end"], problems, f"{workload} untraced")
        first = _result(_run(workload, 1, 1), problems, f"{workload} traced")
        second = _result(_run(workload, 1, 2), problems, f"{workload} traced again")
        if first and second:
            _check_metrics(first, spec["per_layer"], problems, f"{workload} traced")
            for name, metric in first["metrics"].items():
                again = second["metrics"].get(name, {}).get("value")
                if metric["unit"] in EXACT_UNITS and metric["value"] != again:
                    problems.append(f"{workload}: counter {name} read {metric['value']} "
                                    f"then {again}")
        print(f"{workload}: checked", flush=True)
    _check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
