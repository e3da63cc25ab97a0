"""Coloring verification, constructions, Kempe machinery, and table IO."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerchroma import (
    ColoringError,
    EdgeColoring,
    Graph,
    base_rotation_coloring,
    build_power_graph,
    coloring_to_csv,
    coloring_to_json,
    complete_graph,
    construct_group,
    make_edge,
    misra_gries_coloring,
    parse_coloring_csv,
    parse_coloring_json,
    restrict_coloring,
    rotation_classes,
    round_robin_coloring,
    verify_assignment,
    verify_proper,
)
from powerchroma.coloring import _rotation_pairs, _round_robin_pairs
from conftest import (
    c15_reference_coloring,
    kempe_flip,
    neighbor_at,
    random_graph,
    reference_assign,
    reference_rotation_classes,
    reference_round_robin,
    swap_path_colors,
    walk_alternating,
)


def display_edges(pairs, n=15):
    return sorted(make_edge(a % n, b % n) for a, b in pairs)


class TestVerify:
    def test_k3_monochromatic_three_conflicts(self):
        graph = complete_graph(3)
        report = verify_assignment(graph, {(0, 1): 0, (0, 2): 0, (1, 2): 0}, 1)
        assert len(report.conflicts) == 3
        assert not report.valid

    def test_k3_rainbow_valid(self):
        graph = complete_graph(3)
        report = verify_assignment(graph, {(0, 1): 0, (0, 2): 1, (1, 2): 2}, 3)
        assert report.valid
        assert report.distinct_colors == 3

    def test_reference_coloring_of_c15(self):
        palette, mapping = c15_reference_coloring()
        graph = build_power_graph(construct_group("cyclic:15"))
        report = verify_assignment(graph, mapping, palette)
        assert report.valid, report.describe()
        assert report.colored_count == 97
        assert report.distinct_colors == 14

    def test_foreign_edge_reported_separately(self):
        path = Graph(3, [(0, 1), (1, 2)])
        report = verify_assignment(path, {(0, 1): 0, (0, 2): 1, (1, 2): 1}, 2)
        assert report.foreign_edges == (make_edge(0, 2),)
        assert not report.conflicts
        assert not report.valid

    def test_uncolored_and_out_of_palette(self):
        graph = complete_graph(3)
        report = verify_assignment(graph, {(0, 1): 5}, 3)
        assert report.out_of_palette == ((make_edge(0, 1), 5),)
        assert set(report.uncolored) == {make_edge(0, 2), make_edge(1, 2)}

    def test_edge_listed_twice_is_a_conflict(self):
        report = verify_assignment(Graph(2, [(0, 1)]), {(0, 1): 0, (1, 0): 1}, 2)
        assert report.conflicts
        assert not report.valid

    def test_assign_guards(self):
        coloring = EdgeColoring(complete_graph(3), 2)
        coloring.assign(0, 1, 0)
        with pytest.raises(ColoringError):
            coloring.assign(0, 2, 0)  # clashes at vertex 0
        with pytest.raises(ColoringError):
            coloring.assign(0, 1, 1)  # already colored
        with pytest.raises(ColoringError):
            coloring.assign(0, 2, 5)  # out of palette
        with pytest.raises(ColoringError):
            EdgeColoring(Graph(3, [(0, 1)]), 2).assign(0, 2, 0)  # not an edge
        for a, b in ((-1, 2), (2, -1), (1, 3), (3, 4)):
            with pytest.raises(ColoringError, match="not in the graph"):
                coloring.assign(a, b, 1)  # a vertex out of range
        with pytest.raises(ColoringError, match="vertex 1 on edge \\(0, 1\\)"):
            coloring.assign(2, 1, 0)  # clashes at the second endpoint

    def test_lookups_follow_assign_unassign_and_swap(self):
        coloring = EdgeColoring(complete_graph(4), 3)
        coloring.assign(0, 1, 0)
        coloring.assign(1, 2, 1)
        assert neighbor_at(coloring, 1, 0) == 0 and neighbor_at(coloring, 1, 1) == 2
        assert neighbor_at(coloring, 1, 2) is None
        assert coloring.missing_at(1) == {2}
        before = EdgeColoring(coloring.graph, coloring.palette_size, coloring.edge_color.items())
        assert coloring.invert_path(0, 0, 1) == [0, 1, 2]
        assert coloring.edge_color == {make_edge(0, 1): 1, make_edge(1, 2): 0}
        assert neighbor_at(coloring, 0, 1) == 1 and coloring.missing_at(0) == {0, 2}
        assert before.color_of(0, 1) == 0 and neighbor_at(before, 0, 0) == 1
        assert coloring.unassign(2, 1) == 0
        assert coloring.missing_at(2) == {0, 1, 2} and neighbor_at(coloring, 1, 0) is None
        with pytest.raises(ColoringError):
            coloring.unassign(1, 2)


@st.composite
def fills(draw):
    """A small graph, a palette and pairs to fill it with, many of them bad.

    Keys mix canonical edges of the graph, the same edges reversed, and plain
    pairs that may be foreign, negative, out of range or a loop; colors run
    one past each end of the palette but mostly lie inside it, and the small
    domains make repeats and clashes at either endpoint common.
    """
    n = draw(st.integers(2, 6))
    graph = Graph(n, draw(st.sets(st.sampled_from(complete_graph(n).edges()), min_size=1)))
    palette = draw(st.integers(0, 3))
    canonical = st.sampled_from(graph.edges())
    reversed_edge = st.sampled_from([(v, u) for u, v in graph.edges()])
    plain = st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1))
    colors = st.one_of(st.integers(0, max(palette - 1, 0)), st.integers(-1, palette))
    keys = st.one_of(canonical, canonical, reversed_edge, plain)
    pairs = draw(st.lists(st.tuples(keys, colors), min_size=1, max_size=10))
    return graph, palette, pairs


def fill_outcome(build):
    """The error raised as (type, message), or the colored state, edge order included."""
    try:
        coloring = build()
    except ValueError as exc:
        return type(exc), str(exc)
    return list(coloring.items()), coloring.at


class TestFill:
    @settings(max_examples=300, deadline=None)
    @given(fills())
    # a clash at both endpoints names u
    @example((Graph(4, [(0, 2), (1, 3), (0, 1)]), 1, [((0, 2), 0), ((1, 3), 0), ((0, 1), 0)]))
    def test_fill_and_assign_match_the_reference_assign(self, case):
        graph, palette, pairs = case

        def one_by_one(assign):
            coloring = EdgeColoring(graph, palette)
            for (a, b), color in pairs:
                assign(coloring, a, b, color)
            return coloring

        expected = fill_outcome(lambda: one_by_one(reference_assign))
        assert fill_outcome(lambda: EdgeColoring(graph, palette, pairs)) == expected
        assert fill_outcome(lambda: one_by_one(EdgeColoring.assign)) == expected


class TestClosedForms:
    @pytest.mark.parametrize("n", list(range(2, 65, 2)) + [120])
    def test_round_robin_rule_matches_the_circle_method(self, n):
        reference = reference_round_robin(n)
        assert dict(_round_robin_pairs(complete_graph(n))) == reference.edge_color
        coloring = round_robin_coloring(n)
        assert coloring.edge_color == reference.edge_color and coloring.at == reference.at

    @pytest.mark.parametrize("n", list(range(3, 65, 2)) + [121, 243, 255])
    def test_rotation_rule_matches_the_class_loop(self, n):
        reference = reference_rotation_classes(n)
        index = {e: i for i, cls in enumerate(reference) for e in cls}
        assert dict(_rotation_pairs(complete_graph(n))) == index
        assert rotation_classes(n) == reference
        base, matching = base_rotation_coloring(n)
        assert base.edge_color == {e: i for e, i in index.items() if i < n - 1}
        assert matching == tuple(reference[-1])


class TestRoundRobin:
    def test_two_vertices(self):
        coloring = round_robin_coloring(2)
        assert coloring.palette_size == 1
        assert coloring.edge_color == {make_edge(0, 1): 0}

    def test_k4(self):
        coloring = round_robin_coloring(4)
        classes = {}
        for e, c in coloring.items():
            classes.setdefault(c, []).append(e)
        assert len(classes) == 3
        assert all(len(v) == 2 for v in classes.values())

    @pytest.mark.parametrize("n", range(2, 33, 2))
    def test_perfect_matchings(self, n):
        coloring = round_robin_coloring(n)
        report = verify_proper(coloring.graph, coloring)
        assert report.valid
        assert report.distinct_colors == n - 1
        for color in range(n - 1):
            covered = [v for v in range(n) if neighbor_at(coloring, v, color) is not None]
            assert len(covered) == n

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            round_robin_coloring(5)


class TestRotationClasses:
    def test_n3_exact(self):
        classes = rotation_classes(3)
        assert classes[0] == [make_edge(0, 2)]  # labels (3, 2)
        assert classes[1] == [make_edge(0, 1)]  # labels (1, 3)
        assert classes[2] == [make_edge(1, 2)]  # labels (2, 1)

    def test_n15_first_and_last(self):
        classes = rotation_classes(15)
        assert classes[0] == display_edges([(15, 2), (14, 3), (13, 4), (12, 5), (11, 6), (10, 7), (9, 8)])
        assert classes[14] == display_edges([(14, 1), (13, 2), (12, 3), (11, 4), (10, 5), (9, 6), (8, 7)])

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 15, 21, 31])
    def test_partition(self, n):
        classes = rotation_classes(n)
        assert len(classes) == n
        seen = [e for cls in classes for e in cls]
        assert len(seen) == len(set(seen)) == n * (n - 1) // 2
        for p, cls in enumerate(classes, start=1):
            assert len(cls) == (n - 1) // 2
            assert {x for e in cls for x in e} == set(range(n)) - {p % n}

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            rotation_classes(6)


class TestBaseRotationColoring:
    def test_n3(self):
        coloring, matching = base_rotation_coloring(3)
        assert coloring.edge_color == {make_edge(0, 2): 0, make_edge(0, 1): 1}
        assert list(matching) == [make_edge(1, 2)]

    def test_n5_matching(self):
        _, matching = base_rotation_coloring(5)
        assert sorted(matching) == display_edges([(4, 1), (3, 2)], n=5)

    def test_n15_proper_with_seven_uncolored(self):
        coloring, matching = base_rotation_coloring(15)
        report = verify_proper(coloring.graph, coloring)
        assert not report.conflicts
        assert sorted(report.uncolored) == sorted(matching)
        assert len(matching) == 7
        # every vertex with label p misses exactly color p; the identity misses none
        for v in range(1, 15):
            assert coloring.missing_at(v) == {v - 1}
        assert coloring.missing_at(0) == set()


def copy_of(coloring: EdgeColoring) -> EdgeColoring:
    return EdgeColoring(coloring.graph, coloring.palette_size, coloring.edge_color.items())


class TestKempe:
    def test_worked_path_from_base(self):
        base, _ = base_rotation_coloring(15)
        # display colors 13 and 10
        assert copy_of(base).invert_path(10, 12, 9) == [10, 1, 4, 7, 13]

    def test_worked_path_from_reference_coloring(self):
        palette, mapping = c15_reference_coloring()
        graph = build_power_graph(construct_group("cyclic:15"))
        coloring = EdgeColoring(graph, palette, sorted(mapping.items()))
        # display colors 2 and 7
        assert copy_of(coloring).invert_path(5, 1, 6) == [5, 14, 0, 4, 10]

    def test_vertex_without_either_color(self):
        coloring = EdgeColoring(complete_graph(3), 3)
        coloring.assign(0, 1, 0)
        assert copy_of(coloring).invert_path(2, 1, 2) == [2]
        assert kempe_flip(coloring, 2, 1, 2).edge_color == coloring.edge_color

    def test_refuses_a_vertex_with_the_second_color(self):
        # every vertex of the square has both colors: its component is a cycle
        square = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        coloring = EdgeColoring(square, 2, [((0, 1), 0), ((1, 2), 1), ((2, 3), 0), ((0, 3), 1)])
        before = (dict(coloring.edge_color), list(coloring.at))
        with pytest.raises(ColoringError, match="vertex 0 is out of range or has color 1"):
            coloring.invert_path(0, 0, 1)
        assert (coloring.edge_color, coloring.at) == before

    @pytest.mark.parametrize("first,second", [(-1, 1), (1, -1), (3, 1), (1, 3)])
    def test_refuses_colors_outside_the_palette(self, first, second):
        # a negative color would index into the row of vertex v - 1
        coloring = EdgeColoring(complete_graph(3), 3, [((0, 1), 0), ((1, 2), 1)])
        before = (dict(coloring.edge_color), list(coloring.at))
        with pytest.raises(ColoringError, match="outside palette 0..2"):
            coloring.invert_path(2, first, second)
        assert (coloring.edge_color, coloring.at) == before

    @pytest.mark.parametrize("v", [-1, 3])
    def test_refuses_a_vertex_out_of_range(self, v):
        coloring = EdgeColoring(complete_graph(3), 3, [((0, 1), 0)])
        with pytest.raises(ColoringError, match=f"vertex {v} is out of range"):
            coloring.invert_path(v, 0, 1)

    def test_invert_flips_endpoint_colors(self):
        base, _ = base_rotation_coloring(15)
        flipped = kempe_flip(base, 10, 12, 9)
        assert verify_proper(flipped.graph, flipped).conflicts == ()
        assert neighbor_at(flipped, 10, 12) is None  # display color 13 now absent at 10
        assert neighbor_at(flipped, 10, 9) is not None
        assert neighbor_at(flipped, 13, 12) is not None

    def test_invert_is_involution(self):
        base, _ = base_rotation_coloring(15)
        flipped = kempe_flip(base, 10, 12, 9)
        assert flipped.edge_color != base.edge_color
        assert kempe_flip(flipped, 10, 12, 9).edge_color == base.edge_color

    def test_single_edge_path(self):
        graph = Graph(2, [(0, 1)])
        coloring = EdgeColoring(graph, 2)
        coloring.assign(0, 1, 0)
        assert copy_of(coloring).invert_path(0, 0, 1) == [0, 1]
        flipped = kempe_flip(coloring, 0, 0, 1)
        assert flipped.color_of(0, 1) == 1

    def test_invert_random_instances_preserve_properness(self, rng):
        for _ in range(120):
            n = rng.randrange(3, 13)
            graph = random_graph(rng, n, 0.5)
            if graph.edge_count == 0:
                continue
            coloring = misra_gries_coloring(graph)
            if coloring.palette_size < 2:
                continue
            v = rng.randrange(n)
            a, b = rng.sample(range(coloring.palette_size), 2)
            if neighbor_at(coloring, v, a) is not None and neighbor_at(coloring, v, b) is not None:
                continue  # need the endpoint condition
            flipped = kempe_flip(coloring, v, a, b)
            assert verify_proper(graph, flipped).conflicts == ()
            assert kempe_flip(flipped, v, a, b).edge_color == coloring.edge_color

    def test_invert_matches_the_reference_walk_and_swap(self, rng):
        done = 0
        while done < 200:
            graph = random_graph(rng, rng.randrange(2, 13), 0.5)
            coloring = misra_gries_coloring(graph)
            v = rng.randrange(graph.n)
            missed = sorted(coloring.missing_at(v))
            if not missed:
                continue
            first = rng.randrange(coloring.palette_size)
            second = rng.choice(missed)
            ref = copy_of(coloring)
            verts, closed = walk_alternating(lambda x, c: neighbor_at(ref, x, c), v, first, second)
            assert not closed
            swap_path_colors(ref, verts, first, second)
            assert coloring.invert_path(v, first, second) == verts
            assert (coloring.edge_color, coloring.at) == (ref.edge_color, ref.at)
            assert list(coloring.edge_color) == list(ref.edge_color)  # the key order too
            done += 1


class TestRestrict:
    def test_restriction_keeps_subgraph_edges_only(self):
        full = round_robin_coloring(16)
        target = build_power_graph(construct_group("cyclic:16"))
        sub = restrict_coloring(full, target)
        report = verify_proper(target, sub)
        assert report.valid
        assert report.distinct_colors == 15  # identity edges realize every color

    def test_vertex_count_must_match(self):
        with pytest.raises(ColoringError):
            restrict_coloring(round_robin_coloring(4), complete_graph(6))


class TestTableIO:
    def test_csv_roundtrip(self):
        coloring, _ = base_rotation_coloring(15)
        text = coloring_to_csv(coloring)
        palette, mapping = parse_coloring_csv(text, 15)
        assert palette == 14
        assert mapping == coloring.edge_color
        rebuilt = EdgeColoring(coloring.graph, palette, sorted(mapping.items()))
        assert coloring_to_csv(rebuilt) == text

    def test_csv_display_labels(self):
        coloring = EdgeColoring(complete_graph(3), 1)
        coloring.assign(0, 1, 0)
        text = coloring_to_csv(coloring)
        assert "(1, 3)" in text  # vertex 0 displays as label 3

    def test_csv_parse_errors(self):
        with pytest.raises(ColoringError):
            parse_coloring_csv("", 15)
        with pytest.raises(ColoringError):
            parse_coloring_csv("1,3\n", 15)  # header must count 1..k
        with pytest.raises(ColoringError):
            parse_coloring_csv('1\n"(1, 99)"\n', 15)
        with pytest.raises(ColoringError):
            parse_coloring_csv('1\nnonsense\n', 15)
        with pytest.raises(ColoringError):
            parse_coloring_csv('1\n"(1, 2)"\n"(2, 1)"\n', 15)  # duplicate edge
        with pytest.raises(ColoringError, match="does not parse"):
            parse_coloring_csv("1\n" + "1" * 131_073 + "\n", 15)  # past csv's field limit
        with pytest.raises(ColoringError, match="does not parse"):
            parse_coloring_csv('1\n"(1, 2)"\r"(1, 3)"\n', 15)  # a bare carriage return
        # a blank header cell is allowed only at the end of the row
        with pytest.raises(ColoringError, match="bad header row"):
            parse_coloring_csv('1,,2\n"(1, 2)","(2, 3)",\n', 15)
        with pytest.raises(ColoringError, match="bad header row"):
            parse_coloring_csv('1,,2\n"(1, 2)",,"(2, 3)"\n', 15)
        for cell in ("(15, 15)", "(1, 1)"):
            with pytest.raises(ColoringError, match="is a loop") as err:
                parse_coloring_csv(f'1\n"{cell}"\n', 15)
            assert cell in str(err.value)
        huge = "1" * 4301  # past the interpreter's integer-string digit limit
        with pytest.raises(ColoringError, match="out of range") as err:
            parse_coloring_csv(f'1\n"({huge}, 2)"\n', 15)
        assert huge in str(err.value) and "\n" not in str(err.value)

    def test_csv_header_is_strict_decimal(self):
        # int() reads "0_1" as 1 and "+2" as 2
        with pytest.raises(ColoringError, match="bad header row"):
            parse_coloring_csv('0_1,+2\n"(1, 2)","(2, 3)"\n', 15)

    def test_csv_spaces_are_ascii_only(self):
        # str.strip drops the em space in the header and \s matches the one in the cell
        with pytest.raises(ColoringError, match="bad header row"):
            parse_coloring_csv('\u20031\n"(1, 2)"\n', 15)
        with pytest.raises(ColoringError, match="cannot parse edge cell"):
            parse_coloring_csv('1\n"(1,\u20032)"\n', 15)
        assert parse_coloring_csv(' 1\t\n" ( 1 ,\t2 ) "\n', 15) == (1, {(1, 2): 0})

    def test_csv_edge_cell_is_ascii_digits(self):
        # a \d pattern takes the Arabic-Indic digit one, and int() reads it as 1
        with pytest.raises(ColoringError, match="cannot parse edge cell"):
            parse_coloring_csv('1\n"(\u0661, 2)"\n', 15)

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"n": 3, "edges": []}',
            '{"n": 3, "palette": 2, "edges": [{"u": 0, "v": 1, "color": 1.5}]}',
            '{"n": 3, "palette": 2, "edges": [{"u": 0, "v": 1, "color": true}]}',
            '{"n": 3, "palette": 2, "edges": [{"u": "0", "v": 1, "color": 1}]}',
            '{"n": 3, "palette": 2, "edges": [{"u": 0, "v": 1}]}',
            '{"n": 3, "palette": 2, "edges": [[0, 1, 1]]}',
            '{"n": 3, "palette": 2, "edges": [{"u": 1, "v": 1, "color": 1}]}',
            '{"n": 3, "palette": 2, "edges": {}}',
            '{"n": 3.0, "palette": 2, "edges": []}',
            '{"n": 3, "palette": -1, "edges": []}',
            '{"n": 3, "palette": 2, "edges": [',
            pytest.param('{"n": ' + "1" * 4301 + ', "palette": 2, "edges": []}', id="long-n"),
            pytest.param(
                '{"n": 3, "palette": 2, "edges": [{"u": 0, "v": 1, "color": ' + "9" * 5000 + "}]}",
                id="long-color",
            ),
        ],
    )
    def test_json_malformed_is_coloring_error(self, text):
        with pytest.raises(ColoringError) as err:
            parse_coloring_json(text)
        assert "\n" not in str(err.value)

    def test_json_nested_past_the_stack_is_coloring_error(self):
        with pytest.raises(ColoringError, match="does not parse") as err:
            parse_coloring_json('{"edges": ' + "[" * 100_000)
        assert "\n" not in str(err.value)

    def test_json_roundtrip(self):
        coloring = round_robin_coloring(6)
        n, palette, mapping = parse_coloring_json(coloring_to_json(coloring))
        assert (n, palette) == (6, 5)
        assert mapping == coloring.edge_color
