"""Power-graph construction and structural queries."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerchroma import (
    MAX_JSON_ORDER,
    Graph,
    build_power_graph,
    complete_graph,
    construct_group,
    core_class1_check,
    euler_phi,
    factorize,
    generate_catalog,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_cyclic,
    make_edge,
    max_degree,
)
from conftest import (
    brute_power_graph_edges,
    brute_row,
    catalog_groups_to_120,
    nonabelian21_group,
    reference_build_power_graph,
)

C15_NON_EDGES = sorted(
    make_edge(a, b)
    for a, b in [(3, 5), (3, 10), (6, 5), (6, 10), (9, 5), (9, 10), (12, 5), (12, 10)]
)


def full_degree_count(graph: Graph) -> int:
    """How many vertices are adjacent to every other vertex."""
    return sum(graph.degree(v) == graph.n - 1 for v in range(graph.n))


class TestBuildPowerGraph:
    def test_c15_edge_census(self):
        graph = build_power_graph(construct_group("cyclic:15"))
        assert graph.edge_count == 97
        assert [e for e in complete_graph(15).edges() if not graph.has_edge(*e)] == C15_NON_EDGES

    def test_c5_complete(self):
        graph = build_power_graph(construct_group("cyclic:5"))
        assert graph.edge_count == 10
        assert all(graph.degree(v) == 4 for v in range(5))

    def test_q8_sixteen_edges(self):
        group = construct_group("quaternion:2")
        graph = build_power_graph(group)
        assert graph.edge_count == 16
        assert set(graph.edges()) == brute_power_graph_edges(group)

    # the closures feed the build, so every small catalog group is checked
    @pytest.mark.parametrize("spec", generate_catalog(32))
    def test_matches_brute_force(self, spec):
        group = construct_group(spec)
        graph = build_power_graph(group)
        assert set(graph.edges()) == brute_power_graph_edges(group)
        assert graph.edge_count == len(graph.edges())

    def test_order21_fixture_matches_brute_force(self):
        group = nonabelian21_group()
        assert set(build_power_graph(group).edges()) == brute_power_graph_edges(group)

    def test_identity_degree(self):
        for spec in ("cyclic:9", "dihedral:6", "quaternion:2", "product:cyclic:2,cyclic:4"):
            graph = build_power_graph(construct_group(spec))
            assert graph.degree(0) == graph.n - 1

    def test_generator_adjacent_to_all_its_powers(self):
        for spec in ("cyclic:15", "dihedral:5", "quaternion:3"):
            group = construct_group(spec)
            graph = build_power_graph(group)
            for g in range(1, group.order):
                for h in group.powers_of(g):
                    if h != g:
                        assert graph.has_edge(g, h)

    def test_cyclic_subgroup_clique_iff_prime_power_order(self):
        group = construct_group("cyclic:15")
        graph = build_power_graph(group)
        for g in range(group.order):
            members = sorted(group.powers_of(g))
            clique = all(
                graph.has_edge(a, b) for i, a in enumerate(members) for b in members[i + 1 :]
            )
            o = group.element_orders[g]
            assert clique == (o <= 2 or len(factorize(o)) == 1), g


# the most cyclic subgroups for their order: 255 of order 2 in 256 elements, 121 of order 3 in 243
ELEMENTARY_ABELIAN = [
    "product:" + ",".join(["cyclic:2"] * 8),
    "product:" + ",".join(["cyclic:3"] * 5),
]


class TestBuildAgainstReference:
    """The walk per cyclic subgroup gives the graph the walk per element gave."""

    @staticmethod
    def assert_same_build(group):
        fast, slow = build_power_graph(group), reference_build_power_graph(group)
        assert fast.bits == slow.bits, group.label
        assert fast.edges() == slow.edges(), group.label
        assert (fast.edge_count, fast.labels) == (slow.edge_count, slow.labels), group.label

    def test_catalog_to_120_and_order_21(self):
        for group in catalog_groups_to_120():
            self.assert_same_build(group)

    @pytest.mark.parametrize("spec", ["cyclic:255"] + ELEMENTARY_ABELIAN)
    def test_large_orders(self, spec):
        self.assert_same_build(construct_group(spec))


def brute_queries(graph: Graph) -> tuple:
    """(edges, degrees, max degree) from rows decoded one bit test at a time."""
    rows = [brute_row(graph, u) for u in range(graph.n)]
    edges = [make_edge(u, v) for u, row in enumerate(rows) for v in row if u < v]
    return edges, [len(row) for row in rows], max(map(len, rows), default=0)


def queries(graph: Graph) -> tuple:
    degrees = [graph.degree(v) for v in range(graph.n)]
    return graph.edges(), degrees, max_degree(graph)


class TestQueriesFromBits:
    @pytest.mark.parametrize("n", [0, 1])
    def test_no_edges(self, n):
        graph = Graph(n, [])
        assert queries(graph) == brute_queries(graph) == ([], [0] * n, 0)

    # past 64 vertices a row spans several machine words
    @given(st.integers(min_value=0, max_value=80), st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, n, data):
        vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
        pairs = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
        edges = data.draw(st.lists(pairs, max_size=3 * n)) if n >= 2 else []
        graph = Graph(n, edges)
        assert queries(graph) == brute_queries(graph)


class TestQueries:
    def test_max_degree(self):
        assert max_degree(build_power_graph(construct_group("cyclic:15"))) == 14
        assert max_degree(Graph(1, [])) == 0
        assert max_degree(build_power_graph(construct_group("quaternion:2"))) == 7

    def test_full_degree_examples(self):
        assert full_degree_count(build_power_graph(construct_group("cyclic:9"))) == 9
        assert full_degree_count(build_power_graph(construct_group("cyclic:15"))) == 1 + euler_phi(15) == 9
        assert full_degree_count(build_power_graph(construct_group("quaternion:2"))) == 2

    def test_core_dihedral3_single_vertex(self):
        witness = core_class1_check(build_power_graph(construct_group("dihedral:3")))
        assert (witness.condition, witness.core_size) == ("core-small", 1)

    def test_core_c15_is_k9(self):
        graph = build_power_graph(construct_group("cyclic:15"))
        core = [v for v in range(15) if graph.degree(v) == 14]
        assert len(core) == 9 and 0 in core
        # complete on the identity plus eight generators, so it has a cycle
        assert all(graph.has_edge(u, v) for u in core for v in core if u < v)
        assert core_class1_check(graph) is None

    def test_core_q8_is_k2(self):
        graph = build_power_graph(construct_group("quaternion:2"))
        witness = core_class1_check(graph)
        assert (witness.condition, witness.core_size) == ("core-small", 2)
        core = [v for v in range(8) if graph.degree(v) == 7]
        assert core[0] == 0 and graph.has_edge(*core)

    def test_complement_complete_graph_empty(self):
        graph = complete_graph(5)
        assert all(graph.has_edge(u, v) for u in range(5) for v in range(u + 1, 5))

    def test_complement_c21_twelve_edges(self):
        group = construct_group("cyclic:21")
        graph = build_power_graph(group)
        missing = [e for e in complete_graph(21).edges() if not graph.has_edge(*e)]
        assert len(missing) == 12  # (3-1)*(7-1) pairs across the two non-generator classes
        order3 = {v for v in range(21) if group.element_orders[v] == 3}
        order7 = {v for v in range(21) if group.element_orders[v] == 7}
        assert {frozenset(e) for e in missing} == {
            frozenset({a, b}) for a in order3 for b in order7
        }

    def test_edge_budget_identity(self):
        for spec in ("cyclic:15", "dihedral:6", "quaternion:3", "product:cyclic:2,cyclic:6"):
            graph = build_power_graph(construct_group(spec))
            n = graph.n
            missing = [(u, v) for u in range(n) for v in range(u + 1, n) if not graph.has_edge(u, v)]
            assert graph.edge_count + len(missing) == n * (n - 1) // 2

    def test_complete_iff_cyclic_prime_power(self):
        for spec in generate_catalog(48):
            group = construct_group(spec)
            if group.order < 2:
                continue
            graph = build_power_graph(group)
            complete = graph.edge_count == group.order * (group.order - 1) // 2
            expected = is_cyclic(group) and len(factorize(group.order)) == 1
            assert complete == expected, spec

    def test_trichotomy_small(self):
        for spec, expected in [
            ("cyclic:9", 9),
            ("cyclic:16", 16),
            ("cyclic:6", 1 + euler_phi(6)),
            ("cyclic:15", 9),
            ("quaternion:2", 2),
            ("quaternion:4", 2),
            ("quaternion:3", 1),  # dicyclic but not a generalized quaternion 2-group
            ("dihedral:4", 1),
            ("product:cyclic:3,cyclic:3", 1),
        ]:
            graph = build_power_graph(construct_group(spec))
            assert full_degree_count(graph) == expected, spec


class TestGraphBasics:
    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            make_edge(2, 2)

    def test_out_of_range_edge_message_prints_the_pair(self):
        message = "edge (0, 5) out of range for n=3"
        with pytest.raises(ValueError) as info:
            Graph(3, [(0, 5)])
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            graph_from_json('{"n": 3, "edges": [[5, 0]]}')
        assert str(info.value) == message

    def test_make_edge_returns_a_plain_sorted_tuple(self):
        assert type(make_edge(3, 1)) is tuple and make_edge(3, 1) == (1, 3)
        assert type(make_edge(1, 3)) is tuple and make_edge(1, 3) == (1, 3)

    def test_vertices_outside_the_range_have_no_edges(self):
        graph = complete_graph(4)
        for a, b in ((-1, 2), (2, -1), (-1, -2), (4, 0), (0, 4), (3, 7)):
            assert graph.has_edge(a, b) is False
        assert graph.has_edge(3, 0) is True

    @pytest.mark.parametrize("v", [-1, -4, 4, 9])
    def test_degree_refuses_a_vertex_outside_the_range(self, v):
        with pytest.raises(ValueError, match="out of range"):
            complete_graph(4).degree(v)

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 1)], labels=["a"])

    @pytest.mark.parametrize("n", range(10))
    def test_complete_graph_matches_edge_list(self, n):
        fast = complete_graph(n)
        slow = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        assert fast.n == slow.n
        assert fast.bits == slow.bits
        assert fast.edge_count == slow.edge_count
        assert fast.labels == slow.labels
        assert fast.edges() == slow.edges()

    def test_edge_count_is_half_degree_sum(self):
        graph = build_power_graph(construct_group("dihedral:5"))
        assert sum(graph.degree(v) for v in range(graph.n)) == 2 * graph.edge_count


class TestSerialization:
    def test_json_roundtrip_identity(self):
        graph = build_power_graph(construct_group("cyclic:15"))
        text = graph_to_json(graph)
        again = graph_from_json(text)
        assert graph_to_json(again) == text
        assert again.edges() == graph.edges()
        assert again.labels == graph.labels

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 3}',
            '{"n": 2, "edges": [[0]]}',
            '{"n": "a", "edges": []}',
            "[]",
            '{"n": 3, "edges": [], "labels": [null, 1, {"a": 2}]}',
            '{"n": 2, "edges": [[0, 1], [1, 0]]}',
            "",
            pytest.param('{"n": ' + "1" * 5000 + ', "edges": []}', id="n-past-digit-limit"),
        ],
    )
    def test_json_malformed_is_value_error(self, text):
        with pytest.raises(ValueError) as info:
            graph_from_json(text)
        assert type(info.value) is ValueError
        assert "graph JSON" in str(info.value)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"n": 10**20, "edges": []}, '"n" must be at most 1000000, got 10'),
            ({"n": MAX_JSON_ORDER + 1, "edges": [[0, 1]]}, '"n" must be at most'),
            # the shape and labels messages still come first
            ({"n": 10**20, "edges": [[0, 1], [0]]}, '"edges" must be a list of [u, v]'),
            ({"n": 10**20, "edges": [], "labels": [1]}, '"labels" must be a list'),
            ({"n": -(10**20), "edges": []}, "vertex count must be >= 0"),
            # the bound itself is accepted: the edge is refused, not n
            ({"n": MAX_JSON_ORDER, "edges": [[0, MAX_JSON_ORDER]]}, "out of range for n=1000000"),
        ],
    )
    def test_json_n_bound(self, payload, message):
        with pytest.raises(ValueError) as info:
            graph_from_json(json.dumps(payload))
        assert type(info.value) is ValueError
        assert message in str(info.value)
        assert "\n" not in str(info.value)

    def test_json_oversized_n_is_refused_before_allocation(self):
        text = json.dumps({"n": MAX_JSON_ORDER + 1, "edges": []})
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="at most"):
                graph_from_json(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < MAX_JSON_ORDER  # a row list of n ints would take 8 bytes per row

    def test_json_nested_past_the_stack_is_value_error(self):
        with pytest.raises(ValueError, match="nested") as info:
            graph_from_json("[" * 100_000)
        assert type(info.value) is ValueError

    @given(st.integers(min_value=0, max_value=9), st.data())
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip_random(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        graph = Graph(n, chosen)
        again = graph_from_json(graph_to_json(graph))
        assert again.edges() == graph.edges()

    def test_dot_output(self):
        graph = build_power_graph(construct_group("cyclic:3"))
        dot = graph_to_dot(graph)
        assert dot.startswith("graph powergraph {")
        assert 'n0 [label="e"];' in dot
        assert "n0 -- n1" in dot

    def test_dot_with_colors_and_display_labels(self):
        dot = graph_to_dot(complete_graph(4), display_labels=True)
        assert '[label="4"]' in dot  # identity vertex shown as n
