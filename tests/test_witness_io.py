"""Witness I/O: the writers, the graph reader and the verifier against their first
written forms (kept in conftest), and the parsers under fuzzing."""

import csv
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerchroma import (
    ColoringError,
    EdgeColoring,
    Graph,
    GroupTableError,
    color_power_graph,
    coloring_to_csv,
    coloring_to_json,
    complete_graph,
    construct_group,
    generate_catalog,
    graph_from_json,
    graph_to_json,
    load_table_text,
    make_edge,
    parse_coloring_csv,
    parse_coloring_json,
    verify_assignment,
    verify_proper,
)
from powerchroma import coloring as coloring_module
from powerchroma.coloring import _is_total_and_proper
from conftest import (
    reference_coloring_to_csv,
    reference_coloring_to_json,
    reference_graph_from_json,
    reference_graph_to_json,
    reference_verify_assignment,
)

SPECS = list(generate_catalog(60).specs) + ["cyclic:255"]


@pytest.fixture(scope="module")
def witnesses():
    return {spec: color_power_graph(construct_group(spec)) for spec in SPECS}


def same_graph(a: Graph, b: Graph) -> bool:
    return (a.n, a.bits, a.edge_count, a.labels) == (b.n, b.bits, b.edge_count, b.labels)


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestAgainstReference:
    def test_writers_give_the_same_bytes(self, witnesses):
        for spec, result in witnesses.items():
            assert graph_to_json(result.graph) == reference_graph_to_json(result.graph), spec
            assert coloring_to_json(result.coloring) == reference_coloring_to_json(
                result.coloring
            ), spec
            assert coloring_to_csv(result.coloring) == reference_coloring_to_csv(
                result.coloring
            ), spec

    def test_reader_builds_the_same_graph(self, witnesses):
        for spec, result in witnesses.items():
            text = graph_to_json(result.graph)
            assert same_graph(graph_from_json(text), reference_graph_from_json(text)), spec
            assert same_graph(graph_from_json(text), result.graph), spec

    def test_verifier_gives_the_same_report(self, witnesses):
        for spec, result in witnesses.items():
            graph, coloring = result.graph, result.coloring
            report = verify_proper(graph, coloring)
            assert report.valid, spec
            expected = reference_verify_assignment(
                graph, coloring.edge_color, coloring.palette_size
            )
            assert report == expected, spec
            palette, mapping = parse_coloring_csv(coloring_to_csv(coloring), graph.n)
            assert verify_assignment(graph, mapping, palette) == expected, spec
            _, palette, mapping = parse_coloring_json(coloring_to_json(coloring))
            assert verify_assignment(graph, mapping, palette) == expected, spec

    @pytest.mark.parametrize(
        "graph",
        [
            Graph(0, []),
            Graph(1, []),
            Graph(2, [(0, 1)], labels=["", " "]),
            Graph(4, [(0, 3), (1, 2)], ['"hi"', "back\\slash", "ünï ✓ 😀", "\n\t\x00\x7f"]),
        ],
        ids=["n0", "n1", "blank-labels", "escaped-labels"],
    )
    def test_edge_cases_give_the_same_bytes(self, graph):
        text = graph_to_json(graph)
        assert text == reference_graph_to_json(graph)
        assert same_graph(graph_from_json(text), graph)
        for palette in (0, 1, 3):
            coloring = EdgeColoring(graph, palette)
            if palette == 3:
                for color, (u, v) in enumerate(graph.edges()):
                    coloring.assign(u, v, color)
            assert coloring_to_json(coloring) == reference_coloring_to_json(coloring)

    def test_a_loop_key_raises_as_before(self):
        graph = Graph(3, [(0, 1)])
        for mapping in ({(1, 1): 0}, {(0, 1): 0, (2, 2): 1}):
            assert outcome(verify_assignment, graph, mapping, 2) == outcome(
                reference_verify_assignment, graph, mapping, 2
            )


@st.composite
def perturbed_mappings(draw):
    """A greedy coloring of a small graph, then a run of damage and key rewrites."""
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graph = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    palette = draw(st.integers(0, 6))
    items, used = [], {}
    for u, v in graph.edges():
        color = min(set(range(2 * n)) - used.get(u, set()) - used.get(v, set()))
        used.setdefault(u, set()).add(color)
        used.setdefault(v, set()).add(color)
        items.append(((u, v), color))
    kinds = ["twice", "foreign", "recolor", "conflict", "drop", "bool", "reversed-edge"]
    small = st.integers(-3, 9)
    ops = st.tuples(st.sampled_from(kinds), st.integers(0, 40), small, small)
    for kind, i, x, y in draw(st.lists(ops, max_size=8)):
        if kind == "foreign":  # vertices may be negative, past n, or an edge already listed
            if x != y:
                items.append(((x, y), draw(st.integers(-2, 8))))
            continue
        if not items:
            continue
        i %= len(items)
        (a, b), color = items[i]
        if kind == "twice":  # the same edge the other way round, another color
            items.append(((b, a), color + 1 + abs(x)))
        elif kind == "recolor":  # negative, out of palette, or clashing
            items[i] = ((a, b), x)
        elif kind == "conflict":  # the color of another entry at the same vertex
            near = [c for (p, q), c in items if {p, q} & {a, b} and (p, q) != (a, b)]
            if near:
                items[i] = ((a, b), near[abs(x) % len(near)])
        elif kind == "drop":
            del items[i]
        elif kind == "bool":  # a 0 or 1 as a bool, in the color or a vertex
            if x % 3 == 0:
                items[i] = ((a, b), bool(color) if color in (0, 1) else color)
            else:
                items[i] = ((bool(a) if a in (0, 1) else a, b), color)
        else:  # the same edge with its vertices out of order
            items[i] = ((b, a), color)
    order = draw(st.permutations(range(len(items))))
    return graph, dict(items[j] for j in order), palette


class TestPerturbedMappings:
    @given(perturbed_mappings())
    @settings(max_examples=400, deadline=None)
    def test_same_report_as_reference(self, case):
        graph, mapping, palette = case
        report = verify_assignment(graph, mapping, palette)
        expected = reference_verify_assignment(graph, mapping, palette)
        assert report == expected
        # the one-pass check accepts only what the full report finds valid
        assert not _is_total_and_proper(graph, mapping, palette) or expected.valid


def k3_mapping():
    return {(0, 1): 0, (0, 2): 1, (1, 2): 2}


class TestOnePassCheck:
    """``verify_assignment``'s one-pass check, in front of the sorted pass."""

    def test_every_catalog_witness_passes_without_the_sorted_pass(self, witnesses, monkeypatch):
        def refuse(*args):
            raise AssertionError("the sorted pass ran")

        monkeypatch.setattr(coloring_module, "_sorted_report", refuse)
        for spec, result in witnesses.items():
            assert verify_proper(result.graph, result.coloring).valid, spec

    @pytest.mark.parametrize("palette", [10**12, -1, 4])
    def test_palette_outside_0_to_n_takes_the_sorted_pass(self, palette):
        graph = complete_graph(3)
        assert not _is_total_and_proper(graph, k3_mapping(), palette)
        expected = reference_verify_assignment(graph, k3_mapping(), palette)
        assert verify_assignment(graph, k3_mapping(), palette) == expected

    def test_a_slot_table_past_the_limit_takes_the_sorted_pass(self, monkeypatch):
        graph = complete_graph(3)
        assert _is_total_and_proper(graph, k3_mapping(), 3)
        monkeypatch.setattr(coloring_module, "_MAX_SLOTS", 3 * 3 - 1)
        assert not _is_total_and_proper(graph, k3_mapping(), 3)
        report = verify_assignment(graph, k3_mapping(), 3)
        assert report == reference_verify_assignment(graph, k3_mapping(), 3)
        assert report.valid

    @pytest.mark.parametrize(
        "mapping",
        [
            {(0, 1): 0, (0, 2): 1},  # a non-edge in place of (1, 2)
            {(0, 1): 0, (1, 0): 1},  # (0, 1) twice, (1, 2) left out
            {(0, 1): 0, (1, 2): 0},  # a clash at vertex 1
            {(0, 1): 0, (1, 2): 2},  # out of the palette
        ],
        ids=["non-edge", "twice", "clash", "out-of-palette"],
    )
    def test_as_many_entries_as_edges_but_invalid(self, mapping):
        graph = Graph(3, [(0, 1), (1, 2)])
        assert not _is_total_and_proper(graph, mapping, 2)
        report = verify_assignment(graph, mapping, 2)
        assert report == reference_verify_assignment(graph, mapping, 2)
        assert not report.valid

    @pytest.mark.parametrize(
        "mapping",
        [
            {(0, 1): False, (0, 2): True, (1, 2): 2},
            {(False, 1): 0, (False, 2): 1, (True, 2): 2},
            {(1, 0): 0, (0, 2): 1, (1, 2): 2},
            {(2, 1): 2, (0, 1): 0, (2, 0): 1},
            {(0, 1): 0, (0, 2): 1, (1, 2): 2.0},
        ],
        ids=["bool-colors", "bool-vertices", "one-reversed-key", "two-reversed-keys", "float-color"],
    )
    def test_other_keys_and_colors_take_the_sorted_pass(self, mapping):
        graph = complete_graph(3)
        assert not _is_total_and_proper(graph, mapping, 3)
        report = verify_assignment(graph, mapping, 3)
        assert report == reference_verify_assignment(graph, mapping, 3)
        assert report.valid
        assert report.describe() == "valid: 3 edges, 3 colors (palette 3)"


def json_values(keys):
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(-3, 40)
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=4)
    )
    return st.recursive(
        scalars,
        lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.sampled_from(keys), kids),
        max_leaves=24,
    )


PAIRS = st.tuples(st.integers(-1, 6), st.integers(-1, 6)).map(list)
GRAPH_PAYLOADS = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 7),
        "edges": st.lists(PAIRS, max_size=8)
        | st.lists(PAIRS | st.lists(st.integers(-2, 9), max_size=3), max_size=8),
    },
    optional={
        "labels": st.lists(st.text(max_size=3), max_size=8)
        | st.lists(st.text(max_size=3) | st.integers(0, 3), max_size=8)
        | json_values(["n"])
    },
)
GRAPH_TEXTS = st.text(max_size=80) | json_values(["n", "edges", "labels"]).map(json.dumps)
COLORING_TEXTS = (
    st.text(max_size=80)
    | json_values(["n", "palette", "edges", "u", "v", "color"]).map(json.dumps)
    | st.fixed_dictionaries(
        {
            "n": st.integers(-1, 8),
            "palette": st.integers(-1, 8),
            "edges": st.lists(json_values(["u", "v", "color"]), max_size=4),
        }
    ).map(json.dumps)
)
CSV_TEXTS = st.text(max_size=80) | st.text(alphabet='0123456789(), \n\r"x', max_size=80)
TABLE_TEXTS = st.text(max_size=60) | st.lists(
    st.sampled_from(["0", "1", "2", "3", "-1", "x", "#", " ", "\n", "\n#c\n", "1.5"]), max_size=30
).map("".join)

TYPED = (ColoringError, GroupTableError, ValueError)


class TestParserFuzz:
    @staticmethod
    def check_graph_reader(text):
        """A graph or a ValueError, the same as the first reader's, message and all.

        Text that is not JSON gets the first reader's message, prefixed.
        """
        try:
            json.loads(text)
        except ValueError as err:
            assert outcome(graph_from_json, text) == (
                ValueError, "graph JSON does not parse: " + str(err)
            )
            return
        got, expected = outcome(graph_from_json, text), outcome(reference_graph_from_json, text)
        if got[0] == "ok":
            assert expected[0] == "ok" and same_graph(got[1], expected[1])
        else:
            assert got == expected

    @given(GRAPH_TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_graph_reader(self, text):
        self.check_graph_reader(text)

    @given(GRAPH_PAYLOADS.map(json.dumps))
    @settings(max_examples=300, deadline=None)
    def test_graph_reader_precedence(self, text):
        self.check_graph_reader(text)

    @given(COLORING_TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_coloring_json_parser(self, text):
        try:
            n, palette, mapping = parse_coloring_json(text)
        except ColoringError:
            return
        assert type(n) is int and type(palette) is int and type(mapping) is dict

    @given(CSV_TEXTS, st.integers(0, 20))
    @settings(max_examples=300, deadline=None)
    def test_coloring_csv_parser(self, text, n):
        try:
            palette, mapping = parse_coloring_csv(text, n)
        except ColoringError:
            return
        assert type(palette) is int and all(0 <= c < palette for c in mapping.values())
        # each edge's color c is the column whose header reads c + 1
        rows = list(csv.reader(io.StringIO(text)))
        cells = 0
        for row in rows[1:]:
            for idx, cell in enumerate(row):
                m = re.fullmatch(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)", cell.strip())
                if m:
                    e = make_edge(int(m[1]) % n, int(m[2]) % n)
                    assert int(rows[0][idx]) == mapping[e] + 1
                    cells += 1
        assert cells == len(mapping)

    @given(TABLE_TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_table_loader(self, text):
        try:
            group = load_table_text(text)
        except TYPED:
            return
        assert group.order >= 1
