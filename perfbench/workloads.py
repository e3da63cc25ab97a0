"""The benchmark's workloads: inputs, one pass each, and the correctness gate.

Every workload drives powerchroma only through ``powerchroma.cli.main`` and
the names exported by ``powerchroma``, one group at a time in one process.
A pass returns a ``PassResult``; a group counts as failed when its witness
fails independent verification, uses a color count other than the theorem's
(Δ for class 1, Δ+1 for class 2), is reported as a mismatch, exhausts the
exact search budget, or raises.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from time import perf_counter

import powerchroma as pc
from powerchroma import cli

LARGE_ODD = (
    "cyclic:105",
    "cyclic:165",
    "cyclic:195",
    "cyclic:231",
    "cyclic:255",
    "cyclic:243",
    "product:cyclic:3,cyclic:63",
    "product:cyclic:3,cyclic:75",
    "product:cyclic:5,cyclic:25",
)

# Workload sizes: "full" is the benchmark, "small" the harness self-test.
SIZES = {
    "full": {"max_order": 120, "specs": LARGE_ODD},
    "small": {"max_order": 12, "specs": ("cyclic:15", "cyclic:27")},
}


@dataclass
class PassResult:
    wall_s: float
    latencies_ms: list[float]
    attempted: int
    failures: list[str]
    digest: str
    oracle_nodes: int = 0
    errors: list[str] = field(default_factory=list)  # pass-level, not per group


def _theorem_class2(spec: str) -> bool:
    """Class 2 exactly for cyclic groups of odd prime-power order >= 3.

    Decided from the spec string alone, independently of the program: catalog
    products are invariant-factor chains and never cyclic, and dihedral and
    quaternion groups are not cyclic.
    """
    head, _, rest = spec.partition(":")
    if head != "cyclic":
        return False
    n = int(rest)
    if n < 3 or n % 2 == 0:
        return False
    p = 3
    while n % p:
        p += 2
    while n % p == 0:
        n //= p
    return n == 1


class Survey:
    """``powerchroma survey`` through ``cli.main``; per-group times from ``--timing``."""

    def __init__(self, max_order: int, witness: bool):
        self.args = ["survey", "--max-order", str(max_order), "--timing"]
        if witness:
            self.args += ["--witness", "--oracle-max-order", "12"]
        self.witness = witness
        self.specs = list(pc.generate_catalog(max_order).specs)

    def run_pass(self, tracer) -> PassResult:
        buf = io.StringIO()
        started = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.args)
        except Exception as exc:  # a raise fails every group of the pass
            return self._all_failed(perf_counter() - started, f"survey raised {exc!r}")
        wall = perf_counter() - started
        try:
            doc = json.loads(buf.getvalue())
            reports = doc["reports"]
            mismatches = doc["summary"]["mismatches"]
            latencies = [r.pop("elapsed_ms") for r in reports]
        except (ValueError, KeyError, TypeError) as exc:
            return self._all_failed(wall, f"unreadable survey output {exc!r}")
        errors = [] if code == 0 else [f"survey exited {code}"]
        if mismatches:
            errors.append(f"survey reported {len(mismatches)} mismatches")
        failures: list[str] = []
        digest = _sha256(json.dumps(doc, indent=2, sort_keys=True).encode("utf-8"))

        by_spec = {r["spec"]: r for r in reports}
        oracle_nodes = 0
        for spec in self.specs:
            report = by_spec.get(spec)
            if report is None:
                failures.append(f"{spec}: no report")
                continue
            problems = [m for m in mismatches if m.startswith(spec + ":")]
            class2 = _theorem_class2(spec)
            if report["predicted_class"] != ("class2" if class2 else "class1"):
                problems.append(f"{spec}: predicted {report['predicted_class']}")
            witness = report["witness"]
            if self.witness:
                if witness is None or not witness["verified"]:
                    problems.append(f"{spec}: witness missing or not verified")
                elif witness["colors_used"] != report["max_degree"] + class2:
                    problems.append(f"{spec}: {witness['colors_used']} colors used")
                if witness is not None:
                    oracle_nodes += witness["stats"].get("oracle_nodes", 0)
            oracle = report["oracle"]
            if oracle is not None:
                oracle_nodes += oracle["nodes_explored"]
                if oracle["budget_exhausted"]:
                    problems.append(f"{spec}: exact search exhausted its budget")
            failures.extend(problems[:1])
        return PassResult(wall, latencies, len(self.specs), failures, digest, oracle_nodes, errors)

    def _all_failed(self, wall: float, reason: str) -> PassResult:
        failures = [f"{spec}: {reason}" for spec in self.specs]
        return PassResult(wall, [], len(self.specs), failures, "", errors=[reason])


class ColorLargeOdd:
    """``color SPEC --csv --json`` then ``verify``, through the exported library calls.

    Per group: construct and color (the power graph is built inside
    ``color_power_graph``), ``verify_proper``, serialize the coloring to CSV
    and JSON and the graph to JSON, parse all three back, and re-verify both
    parsed colorings with ``verify_assignment``. The seed only shuffles the
    group order.
    """

    def __init__(self, specs, seed: int):
        self.specs = list(specs)
        random.Random(seed).shuffle(self.specs)

    def run_pass(self, tracer) -> PassResult:
        latencies: list[float] = []
        failures: list[str] = []
        digests: dict[str, str] = {}
        oracle_nodes = 0
        started = perf_counter()
        for spec in self.specs:
            t0 = perf_counter()
            try:
                with tracer.group(spec):
                    outputs, problem, nodes = self._one(spec)
            except Exception as exc:  # a raising group fails, the pass goes on
                latencies.append((perf_counter() - t0) * 1000.0)
                failures.append(f"{spec}: raised {exc!r}")
                continue
            latencies.append((perf_counter() - t0) * 1000.0)
            oracle_nodes += nodes
            digests[spec] = _sha256(b"\0".join(outputs))
            if problem:
                failures.append(f"{spec}: {problem}")
        wall = perf_counter() - started
        digest = _sha256("".join(f"{s} {d}\n" for s, d in sorted(digests.items())).encode())
        return PassResult(wall, latencies, len(self.specs), failures, digest, oracle_nodes)

    @staticmethod
    def _one(spec: str):
        group = pc.construct_group(spec)
        result = pc.color_power_graph(group)
        proper = pc.verify_proper(result.graph, result.coloring).valid
        csv_bytes = pc.coloring_to_csv(result.coloring).encode("utf-8")
        json_bytes = pc.coloring_to_json(result.coloring).encode("utf-8")
        graph_bytes = pc.graph_to_json(result.graph).encode("utf-8")

        graph = pc.graph_from_json(graph_bytes.decode("utf-8"))
        csv_palette, csv_mapping = pc.parse_coloring_csv(csv_bytes.decode("utf-8"), graph.n)
        _, json_palette, json_mapping = pc.parse_coloring_json(json_bytes.decode("utf-8"))
        csv_ok = pc.verify_assignment(graph, csv_mapping, csv_palette).valid
        json_ok = pc.verify_assignment(graph, json_mapping, json_palette).valid

        # Δ and the color count straight from the serialized bytes.
        degree: dict[int, int] = {}
        for u, v in json.loads(graph_bytes)["edges"]:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        expected = max(degree.values(), default=0) + _theorem_class2(spec)
        problem = None
        if not (proper and csv_ok and json_ok):
            problem = f"verification failed (proper={proper}, csv={csv_ok}, json={json_ok})"
        elif csv_mapping != json_mapping:
            problem = "CSV and JSON colorings differ"
        elif len(set(csv_mapping.values())) != expected:
            problem = f"{len(set(csv_mapping.values()))} colors used, expected {expected}"
        nodes = result.stats.get("oracle_nodes", 0)
        return (csv_bytes, json_bytes, graph_bytes), problem, nodes


def build(name: str, seed: int, size: str):
    params = SIZES[size]
    if name == "survey-witness":
        return Survey(params["max_order"], witness=True)
    if name == "classify-sweep":
        return Survey(params["max_order"], witness=False)
    if name == "color-large-odd":
        return ColorLargeOdd(params["specs"], seed)
    raise ValueError(f"unknown workload {name!r}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
