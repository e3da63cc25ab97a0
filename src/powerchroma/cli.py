"""Command-line interface.

Verbs map one-to-one onto the library surface: ``build`` (group to graph
JSON/DOT), ``analyze`` (overfull and core report), ``classify`` (theorem
prediction), ``color`` (witness generation), ``verify`` (graph + coloring to
verification report), and ``survey`` (catalog sweep). The exit code is
nonzero exactly when a verification or consistency check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .coloring import (
    ColoringError,
    coloring_to_csv,
    coloring_to_json,
    parse_coloring_csv,
    parse_coloring_json,
    verify_assignment,
    verify_proper,
)
from .exchange import color_power_graph
from .groups import MAX_ORDER, GroupSpecError, GroupTableError, _decimal, construct_group
from .overfull import core_class1_check, deficiency_report, predict_class
from .powergraph import build_power_graph, graph_from_json, graph_to_dot, graph_to_json, max_degree
from .toolkit import generate_catalog, run_survey


class _Parser(argparse.ArgumentParser):
    """Reports a flag error as one ``error: ...`` line with exit status 1."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _integer(text: str) -> int:
    try:
        return _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _max_order(text: str) -> int:
    value = _integer(text)
    if value > MAX_ORDER:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_ORDER}, got {text!r}")
    return value


def _nonnegative(text: str) -> int:
    try:
        value = _decimal(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_build(args) -> int:
    graph = build_power_graph(construct_group(args.spec))
    if args.dot:
        _emit(graph_to_dot(graph, display_labels=args.display_labels), args.dot)
    text = graph_to_json(graph)
    _emit(text, args.out)
    return 0


def _cmd_analyze(args) -> int:
    group = construct_group(args.spec)
    graph = build_power_graph(group)
    report = deficiency_report(graph)
    core = core_class1_check(graph)
    payload = {
        "spec": group.label,
        "order": group.order,
        **asdict(report),
        "core_condition": core.condition if core else None,
        "core_description": core.description if core else None,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_classify(args) -> int:
    group = construct_group(args.spec)
    prediction = predict_class(group)
    payload = {
        "spec": group.label,
        "order": group.order,
        "class": prediction.class_label,
        "reason": prediction.reason,
        **asdict(prediction.facts),
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_color(args) -> int:
    group = construct_group(args.spec)
    result = color_power_graph(group)
    check = verify_proper(result.graph, result.coloring)
    certificate = result.certificate
    payload = {
        "spec": group.label,
        "order": group.order,
        "class": result.class_label,
        "strategy": result.strategy,
        "colors_used": result.colors_used,
        "max_degree": max_degree(result.graph),
        "verified": check.valid,
        "overfull_certificate": (
            {
                "edge_count": certificate.edge_count,
                "max_degree": certificate.max_degree,
                "capacity": certificate.max_degree * (certificate.n // 2),
            }
            if certificate
            else None
        ),
    }
    if args.csv:
        _emit(coloring_to_csv(result.coloring), args.csv)
    if args.json:
        _emit(coloring_to_json(result.coloring), args.json)
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    if not check.valid or result.class_label == "indeterminate":
        return 1
    return 0


def _cmd_verify(args) -> int:
    graph = graph_from_json(Path(args.graph).read_text(encoding="utf-8"))
    text = Path(args.coloring).read_text(encoding="utf-8")
    if args.coloring.endswith(".json"):
        n, palette, mapping = parse_coloring_json(text)
        if n != graph.n:
            raise ColoringError(f"coloring is for n={n} but the graph has n={graph.n}")
    else:
        palette, mapping = parse_coloring_csv(text, graph.n)
    report = verify_assignment(graph, mapping, palette)
    payload = {
        "n": report.n,
        "palette": report.palette_size,
        "colored": report.colored_count,
        "distinct_colors": report.distinct_colors,
        "valid": report.valid,
        "detail": report.describe(),
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0 if report.valid else 1


def _cmd_survey(args) -> int:
    catalog = generate_catalog(args.max_order)
    result = run_survey(
        catalog,
        witness=args.witness,
        oracle_max_order=args.oracle_max_order,
        extra_specs=tuple(args.extra or ()),
    )
    _emit(result.to_json(include_timing=args.timing), args.out)
    return 0 if result.consistent else 1


def main(argv=None) -> int:
    parser = _Parser(
        prog="powerchroma",
        description="Power graphs of finite groups: overfullness, edge-chromatic "
        "class, and verified edge colorings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec_help = "group spec: cyclic:n | dihedral:n | quaternion:m | product:... | table:file"

    p = sub.add_parser("build", help="construct a power graph and emit JSON (and DOT)")
    p.add_argument("spec", help=spec_help)
    p.add_argument("--out", help="write graph JSON here instead of stdout")
    p.add_argument("--dot", help="also write a DOT rendering to this path")
    p.add_argument("--display-labels", action="store_true", help="label vertices 1..n in DOT")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("analyze", help="overfullness, deficiency, and core report")
    p.add_argument("spec", help=spec_help)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify", help="predict class 1 or class 2")
    p.add_argument("spec", help=spec_help)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("color", help="produce and verify a coloring witness")
    p.add_argument("spec", help=spec_help)
    p.add_argument("--csv", help="write the coloring table here")
    p.add_argument("--json", help="write the flat coloring JSON here")
    p.add_argument("--out", help="write the summary JSON here instead of stdout")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("verify", help="check a coloring file against a graph file")
    p.add_argument("--graph", required=True, help="graph JSON path")
    p.add_argument("--coloring", required=True, help="coloring CSV or JSON path")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("survey", help="classify a whole catalog of groups")
    p.add_argument("--max-order", type=_max_order, required=True)
    p.add_argument("--oracle-max-order", type=_nonnegative, default=0)
    p.add_argument("--witness", action="store_true", help="generate and verify colorings")
    p.add_argument("--timing", action="store_true", help="include per-group timings")
    p.add_argument("--extra", action="append", metavar="SPEC",
                   help="extra group spec to include (repeatable), e.g. table:file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_survey)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GroupSpecError, GroupTableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
