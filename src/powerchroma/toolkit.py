"""Group catalog generation and the survey runner.

The catalog covers all cyclic groups, all abelian groups up to isomorphism
(as invariant-factor products d1 | d2 | ... with at least two factors),
dihedral groups, and generalized quaternion groups up to a maximum order.
``run_survey`` classifies every catalog group, optionally backs each
prediction with a verified coloring witness and an exact-search cross-check,
and collects every consistency violation into the summary.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from . import oracle
from .coloring import verify_proper
from .exchange import color_graph
from .groups import construct_group
from .overfull import core_class1_check, deficiency_report, edge_count_from_orders, predict_class
from .powergraph import build_power_graph

__all__ = [
    "Catalog",
    "ClassReport",
    "SurveyResult",
    "generate_catalog",
    "run_survey",
    "survey_group",
]


@dataclass(frozen=True)
class Catalog:
    max_order: int
    specs: tuple[str, ...]

    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)


def _invariant_chains(max_order: int) -> list[tuple[int, ...]]:
    """All chains (d1, ..., dk), k >= 2, with 2 <= d1, d_i | d_{i+1}, product <= max."""
    chains: list[tuple[int, ...]] = []

    def extend(chain: tuple[int, ...], product: int) -> None:
        if len(chain) >= 2:
            chains.append(chain)
        last = chain[-1]
        multiple = last
        while product * multiple <= max_order:
            extend(chain + (multiple,), product * multiple)
            multiple += last

    for d1 in range(2, max_order + 1):
        if d1 * d1 <= max_order:
            extend((d1,), d1)
    return sorted(chains)


def generate_catalog(max_order: int) -> Catalog:
    """Deterministic catalog of group specs, sorted by (order, spec)."""
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    entries: list[tuple[int, str]] = []
    for n in range(1, max_order + 1):
        entries.append((n, f"cyclic:{n}"))
    for chain in _invariant_chains(max_order):
        order = 1
        for d in chain:
            order *= d
        entries.append((order, "product:" + ",".join(f"cyclic:{d}" for d in chain)))
    n = 3
    while 2 * n <= max_order:
        entries.append((2 * n, f"dihedral:{n}"))
        n += 1
    m = 2
    while 4 * m <= max_order:
        entries.append((4 * m, f"quaternion:{m}"))
        m += 1
    entries.sort()
    return Catalog(max_order, tuple(spec for _, spec in entries))


@dataclass
class WitnessInfo:
    colors_used: int
    verified: bool
    strategy: str
    class_label: str
    stats: dict


@dataclass
class OracleInfo:
    chromatic_index: int | None
    nodes_explored: int
    budget_exhausted: bool
    agrees: bool


@dataclass
class ClassReport:
    spec: str
    order: int
    is_cyclic: bool
    odd: bool
    prime_power: bool
    edge_count: int
    edge_count_from_orders: int  # the audit's second derivation; not serialized
    max_degree: int
    deficiency: int
    budget: int | None
    overfull: bool
    predicted_class: str
    reason: str
    core_condition: str | None
    witness: WitnessInfo | None
    oracle: OracleInfo | None
    elapsed_ms: float

    def to_dict(self, include_timing: bool = False) -> dict:
        out = dict(vars(self))
        for key in ("witness", "oracle"):
            if out[key] is not None:
                out[key] = dict(vars(out[key]))
        elapsed_ms = out.pop("elapsed_ms")
        del out["edge_count_from_orders"]
        if include_timing:
            out["elapsed_ms"] = round(elapsed_ms, 3)
        return out


@dataclass
class SurveyResult:
    params: dict
    reports: list[ClassReport]
    overfull_groups: list[str]
    class2_groups: list[str]
    mismatches: list[str]

    @property
    def consistent(self) -> bool:
        return not self.mismatches

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "params": self.params,
            "reports": [r.to_dict(include_timing) for r in self.reports],
            "summary": {
                "group_count": len(self.reports),
                "overfull_groups": self.overfull_groups,
                "class2_groups": self.class2_groups,
                "mismatches": self.mismatches,
            },
        }

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)


def survey_group(spec: str, *, witness: bool = False, oracle_max_order: int = 0) -> ClassReport:
    started = time.perf_counter()
    group = construct_group(spec)
    graph = build_power_graph(group)
    report = deficiency_report(graph)
    prediction = predict_class(group)
    core = core_class1_check(graph)

    witness_info = None
    if witness:
        result = color_graph(graph)
        check = verify_proper(graph, result.coloring)
        witness_info = WitnessInfo(
            colors_used=result.colors_used,
            verified=check.valid,
            strategy=result.strategy,
            class_label=result.class_label,
            stats=result.stats,
        )

    oracle_info = None
    if group.order <= oracle_max_order:
        exact = oracle.exact_chromatic_index(graph)
        expected = report.max_degree + (1 if prediction.class_label == "class2" else 0)
        oracle_info = OracleInfo(
            chromatic_index=exact.chromatic_index,
            nodes_explored=exact.nodes_explored,
            budget_exhausted=exact.budget_exhausted,
            agrees=exact.chromatic_index == expected,
        )

    return ClassReport(
        spec=spec,
        order=group.order,
        is_cyclic=prediction.facts.is_cyclic,
        odd=prediction.facts.odd,
        prime_power=prediction.facts.prime_power,
        edge_count=report.edge_count,
        edge_count_from_orders=edge_count_from_orders(group),
        max_degree=report.max_degree,
        deficiency=report.deficiency,
        budget=report.budget,
        overfull=report.overfull,
        predicted_class=prediction.class_label,
        reason=prediction.reason,
        core_condition=core.condition if core else None,
        witness=witness_info,
        oracle=oracle_info,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def _check_report(report: ClassReport) -> list[str]:
    problems = []
    if (report.predicted_class == "class2") != report.overfull:
        problems.append(
            f"{report.spec}: predicted {report.predicted_class} does not track "
            f"overfull={report.overfull}"
        )
    if report.edge_count != report.edge_count_from_orders:
        problems.append(
            f"{report.spec}: {report.edge_count} edges, element orders give "
            f"{report.edge_count_from_orders}"
        )
    if report.core_condition is not None and report.predicted_class == "class2":
        problems.append(f"{report.spec}: core witness present but predicted class2")
    if report.witness is not None:
        w = report.witness
        if not w.verified:
            problems.append(f"{report.spec}: witness coloring failed verification")
        if w.class_label != report.predicted_class:
            problems.append(
                f"{report.spec}: witness produced {w.class_label}, predicted "
                f"{report.predicted_class}"
            )
        expected = report.max_degree + (1 if report.predicted_class == "class2" else 0)
        if w.colors_used != expected:
            problems.append(
                f"{report.spec}: witness used {w.colors_used} colors, expected {expected}"
            )
    if report.oracle is not None:
        if report.oracle.budget_exhausted:
            problems.append(f"{report.spec}: exact search exhausted its budget")
        elif not report.oracle.agrees:
            problems.append(
                f"{report.spec}: exact chromatic index {report.oracle.chromatic_index} "
                f"disagrees with predicted {report.predicted_class}"
            )
    return problems


def run_survey(
    catalog: Catalog,
    *,
    witness: bool = False,
    oracle_max_order: int = 0,
    extra_specs: tuple[str, ...] = (),
) -> SurveyResult:
    """Classify every catalog group; reports are sorted and fully deterministic."""
    reports = [
        survey_group(spec, witness=witness, oracle_max_order=oracle_max_order)
        for spec in list(catalog.specs) + list(extra_specs)
    ]
    reports.sort(key=lambda r: (r.order, r.spec))

    mismatches: list[str] = []
    for report in reports:
        mismatches.extend(_check_report(report))
    return SurveyResult(
        params={
            "max_order": catalog.max_order,
            "witness": witness,
            "oracle_max_order": oracle_max_order,
            "extra_specs": list(extra_specs),
        },
        reports=reports,
        overfull_groups=[r.spec for r in reports if r.overfull],
        class2_groups=[r.spec for r in reports if r.predicted_class == "class2"],
        mismatches=mismatches,
    )
