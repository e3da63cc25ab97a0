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
    reference_parse_coloring_csv,
    reference_verify_assignment,
)

SPECS = list(generate_catalog(60).specs) + ["cyclic:255"]
SMALL_WITNESSES = [
    (result.graph, result.coloring.edge_color, result.coloring.palette_size)
    for result in map(color_power_graph, map(construct_group, generate_catalog(12)))
    if result.graph.edge_count
]


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
        for palette in (0, 1, 3, 5):  # 3 and 5 lie above n = 0, 1 and 2; 5 colors (0, 1) 4
            coloring = EdgeColoring(graph, palette)
            if palette >= 3:
                for i, (u, v) in enumerate(graph.edges()):
                    coloring.assign(u, v, palette - 1 - i)
            assert coloring_to_json(coloring) == reference_coloring_to_json(coloring)
            assert coloring_to_csv(coloring) == reference_coloring_to_csv(coloring)

    def test_a_loop_key_is_a_foreign_edge(self):
        graph = Graph(3, [(0, 1)])
        for mapping, loop in (({(1, 1): 0}, (1, 1)), ({(0, 1): 0, (2, 2): 1}, (2, 2))):
            report = verify_assignment(graph, mapping, 2)
            assert not report.valid and report.foreign_edges == (loop,)
            assert report.colored_count == len(mapping) - 1


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
            {(1, 0): 0, (0, 2): 1, (1, 2): 2},
            {(2, 1): 2, (0, 1): 0, (2, 0): 1},
        ],
        ids=["one-reversed-key", "two-reversed-keys"],
    )
    def test_reversed_keys_take_the_sorted_pass(self, mapping):
        graph = complete_graph(3)
        assert not _is_total_and_proper(graph, mapping, 3)
        report = verify_assignment(graph, mapping, 3)
        assert report == reference_verify_assignment(graph, mapping, 3)
        assert report.valid
        assert report.describe() == "valid: 3 edges, 3 colors (palette 3)"

    @pytest.mark.parametrize(
        "mapping, fault",
        [
            (
                {(0, 1): False, (0, 2): True, (1, 2): 2},
                "out-of-palette: (0, 1) -> False, (0, 2) -> True",
            ),
            ({(0, 1): 0, (0, 2): 1, (1, 2): 2.0}, "out-of-palette: (1, 2) -> 2.0"),
            ({(0, 1): 0, (0, 2): 1, (1, 2): True}, "out-of-palette: (1, 2) -> True"),
            ({(0, 1): 0, (0, 2): 1, (1, 2): "c"}, "out-of-palette: (1, 2) -> 'c'"),
            (
                {(0, 1): 0, (0, 2): 1, (True, 2): 2},
                "uncolored edges: [(1, 2)]; edges not in graph: [(True, 2)]",
            ),
            (
                {(False, 1): 0, (False, 2): 1, (True, 2): 2},
                "uncolored edges: [(0, 1), (0, 2), (1, 2)]; "
                "edges not in graph: [(False, 1), (False, 2), (True, 2)]",
            ),
            ({(0, 1): 0, (0, 2): 1, (1, 2): 2, (0, 1, 2): 0}, "edges not in graph: [(0, 1, 2)]"),
            ({(0, 1): 0, (0, 2): 1, 5: 2}, "uncolored edges: [(1, 2)]; edges not in graph: [5]"),
            ({(0, 1): 0, "ab": 1, (1, 2): 2}, "uncolored edges: [(0, 2)]; edges not in graph: ['ab']"),
            (
                {(0, 1): 0, (0, 2): 1, (1, 2.0): 2},
                "uncolored edges: [(1, 2)]; edges not in graph: [(1, 2.0)]",
            ),
        ],
        ids=[
            "bool-colors", "float-color", "bool-color", "str-color", "bool-vertex", "bool-vertices",
            "triple-key", "int-key", "str-key", "float-vertex",
        ],
    )
    def test_keys_and_colors_are_not_coerced(self, mapping, fault):
        graph = complete_graph(3)
        assert not _is_total_and_proper(graph, mapping, 3)
        report = verify_assignment(graph, mapping, 3)
        assert report == reference_verify_assignment(graph, mapping, 3)
        assert not report.valid
        assert report.describe() == fault

    def test_a_non_int_color_listed_twice_is_shown_as_given(self):
        report = verify_assignment(Graph(2, [(0, 1)]), {(0, 1): 0, (1, 0): "x"}, 2)
        assert report == reference_verify_assignment(Graph(2, [(0, 1)]), {(0, 1): 0, (1, 0): "x"}, 2)
        assert report.describe() == "conflict at vertex 0: color 'x' on edges (0, 1) and (0, 1)"

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_odd_entries_in_a_valid_witness_are_reported(self, data):
        graph, mapping, palette = data.draw(st.sampled_from(SMALL_WITNESSES))
        mapping = dict(mapping)
        odd_keys = st.sampled_from([5, "ab", None, 1.5, (0, 1, 2), (0,), ()])
        odd_colors = st.sampled_from([True, False, 0.0, 1.0, 2.5, "1", None, (0,)])
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(["key", "color", "extra"]))
            edges = [e for e in mapping if type(e) is tuple and len(e) == 2 and type(e[0]) is int]
            if kind == "extra" or not edges:
                mapping[data.draw(odd_keys)] = data.draw(st.integers(0, palette))
                continue
            u, v = edge = data.draw(st.sampled_from(edges))
            if kind == "color":
                mapping[edge] = data.draw(odd_colors)
            else:  # the same edge under a key that only compares equal to it, or not at all
                color = mapping.pop(edge)
                key = data.draw(st.sampled_from([(float(u), v), (u, float(v)), (u, v, u), f"{u},{v}"]))
                if u in (0, 1):
                    key = data.draw(st.sampled_from([key, (bool(u), v)]))
                mapping[key] = color
        report = verify_assignment(graph, mapping, palette)
        assert not report.valid
        assert report == reference_verify_assignment(graph, mapping, palette)
        assert report.describe()


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
        expected = csv_outcome(reference_parse_coloring_csv, text, n)
        assert csv_outcome(parse_coloring_csv, text, n) == expected
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


@st.composite
def coloring_tables(draw):
    """(text, n): a valid table of edge cells, then a few cells rewritten or added.

    The rewrites pad a cell with ASCII or other space, zero-pad a label, put a
    label out of range or past the digit limit, turn a cell round, repeat it,
    make it a loop, or add a blank, unparsable or past-the-palette cell.
    """
    n = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 0, 1]))
    palette = draw(st.sampled_from([1, 2, 3, 4, 1, 2, 3, 0]))
    header = [str(c) for c in range(1, palette + 1)]
    header += draw(st.sampled_from([[]] * 8 + [[""], [" ", ""], ["x"], ["0"]]))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    chosen = []
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12, unique=True))
    plain = ["", "", "", " ", "", ""]  # the pads of "(a, b)"
    cells = [[str(a), str(b), list(plain)] for a, b in chosen]  # labels, then six pads
    extra: list[str] = []
    space = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\xa0", "\u3000"])
    kinds = ["pad", "zeros", "out", "digits", "turn", "repeat", "repeat", "loop", "blank", "junk",
             "past"]
    edits = st.lists(st.tuples(st.sampled_from(kinds), st.integers(0, 11)), max_size=3)
    for kind, i in draw(edits):
        if kind == "blank":
            extra.append(draw(st.sampled_from(["", " ", "\t", "\xa0"])))
        elif kind == "junk":
            extra.append(draw(st.sampled_from(["x", "(1 2)", "(-1, 2)", "(1, 2", "(1,2)x", "()"])))
        elif kind == "past":
            extra.append("past")
        elif cells:
            cell = cells[i % len(cells)]
            side = i % 2
            if kind == "pad":
                cell[2][draw(st.integers(0, 5))] = draw(space)
            elif kind == "zeros":
                cell[side] = "0" * draw(st.integers(1, 3)) + cell[side]
            elif kind == "out":
                cell[side] = str(draw(st.sampled_from([0, n + 1, n + 2, 10**30])))
            elif kind == "digits":
                cell[side] = draw(st.sampled_from(["1" * 5000, "0" * 4999 + "1"]))
            elif kind == "turn":
                cell[0], cell[1] = cell[1], cell[0]
            elif kind == "repeat":  # as written, or turned round with the same pads
                turned = [cell[1], cell[0], list(cell[2])]
                cells.append(turned if side else [*cell[:2], list(plain)])
            else:  # a loop, maybe through a zero-padded label
                other = "0" + cell[side] if i % 3 == 0 else cell[side]
                cells.append([cell[side], other, list(plain)])
    shown = [f"{p[0]}({p[1]}{a}{p[2]},{p[3]}{b}{p[4]}){p[5]}" for a, b, p in cells]
    order = draw(st.permutations(shown + extra))
    width = max(palette, 1)
    rows = [list(order[k:k + width]) for k in range(0, len(order), width)]
    for row in rows:
        if "past" in row:  # an edge cell in the first column past the palette
            row[row.index("past")] = ""
            row += [""] * (palette - len(row)) + ["(1, 2)"]
    buf = io.StringIO()
    csv.writer(buf).writerows([header] + rows)
    return buf.getvalue(), n


def csv_outcome(fn, text, n):
    """The palette and the mapping with its order, or the type and message raised."""
    try:
        palette, mapping = fn(text, n)
    except ValueError as exc:
        return type(exc), str(exc)
    return palette, list(mapping.items())


class TestCsvReaderAgainstReference:
    """The reader and its memo against the reader that parsed every label of every cell."""

    @given(coloring_tables())
    @settings(max_examples=400, deadline=None)
    def test_same_mapping_or_message(self, case):
        text, n = case
        assert csv_outcome(parse_coloring_csv, text, n) == csv_outcome(
            reference_parse_coloring_csv, text, n
        )

    def test_catalog_tables_read_the_same(self, witnesses):
        for spec, result in witnesses.items():
            text, n = coloring_to_csv(result.coloring), result.graph.n
            assert csv_outcome(parse_coloring_csv, text, n) == csv_outcome(
                reference_parse_coloring_csv, text, n
            ), spec

    @pytest.mark.parametrize(
        "text, n, expected",
        [
            ('1\n"(01, 2)"\n', 3, (1, [((1, 2), 0)])),
            ('1,2\n"(3, 1)"," ( 2 ,1 ) "\n', 3, (2, [((0, 1), 0), ((1, 2), 1)])),
            ('1\n"(0, 1)"\n', 5, (ColoringError, "edge cell '(0, 1)' out of range for n=5")),
            ('1\n"(1, 6)"\n', 5, (ColoringError, "edge cell '(1, 6)' out of range for n=5")),
            ('1\n"(1, 01)"\n', 5, (ColoringError, "edge cell '(1, 01)' is a loop")),
            ('1\n"(1, 2)"\n"(2, 1)"\n', 5, (ColoringError, "edge '(2, 1)' listed twice")),
            ('1\n"(5, 1)"\n" (1,05)"\n', 5, (ColoringError, "edge '(1,05)' listed twice")),
            ('1\n"(1, 2)","(1, 3)"\n', 5, (ColoringError, "cell '(1, 3)' beyond declared palette")),
            ('1,2\n" ", \t\n(x)\n', 5, (ColoringError, "cannot parse edge cell '(x)'")),
        ],
    )
    def test_pinned_tables(self, text, n, expected):
        assert csv_outcome(parse_coloring_csv, text, n) == expected
        assert csv_outcome(reference_parse_coloring_csv, text, n) == expected

    def test_a_label_past_the_digit_limit_is_refused(self):
        cell = f"(1, {'0' * 4999}2)"
        expected = (ColoringError, f"edge cell {cell!r} out of range for n=5")
        assert csv_outcome(parse_coloring_csv, f'1\n"{cell}"\n', 5) == expected

    def test_a_label_refused_once_is_read_when_valid(self):
        # a failing cell ends the call, so only a later call can meet its labels again:
        # 6 is out of range at n = 5 and vertex 0 at n = 6, and 2 is read either way
        table = '1,2\n"(2, 6)","(2, 3)"\n'
        assert csv_outcome(parse_coloring_csv, table, 5) == (
            ColoringError, "edge cell '(2, 6)' out of range for n=5"
        )
        assert csv_outcome(parse_coloring_csv, table, 6) == (2, [((0, 2), 0), ((2, 3), 1)])


class TestJsonReaderMessages:
    def test_an_edge_listed_twice_is_refused(self):
        edges = [{"u": 0, "v": 1, "color": 1}, {"u": 1, "v": 0, "color": 2}]
        text = json.dumps({"n": 3, "palette": 2, "edges": edges})
        with pytest.raises(ColoringError, match=r"^edge \(0, 1\) listed twice$"):
            parse_coloring_json(text)
