"""Overfullness decisions, deficiency budgets, and class prediction."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powerchroma import (
    Graph,
    build_power_graph,
    complete_graph,
    construct_group,
    core_class1_check,
    deficiency_report,
    edge_count_from_orders,
    generate_catalog,
    is_overfull,
    predict_class,
)
from conftest import catalog_groups_to_120, reference_core_class1_check


class TestIsOverfull:
    def test_k9_overfull(self):
        graph = build_power_graph(construct_group("cyclic:9"))
        assert graph.edge_count == 36
        assert is_overfull(graph)  # 36 > 8 * 4

    def test_c15_not_overfull(self):
        graph = build_power_graph(construct_group("cyclic:15"))
        assert not is_overfull(graph)  # 97 <= 14 * 7

    def test_even_order_never_overfull(self):
        assert not is_overfull(build_power_graph(construct_group("cyclic:6")))
        for spec in generate_catalog(30):
            group = construct_group(spec)
            if group.order % 2 == 0:
                assert not is_overfull(build_power_graph(group)), spec

    def test_degenerate_orders(self):
        assert not is_overfull(build_power_graph(construct_group("cyclic:1")))
        assert not is_overfull(build_power_graph(construct_group("cyclic:2")))


class TestDeficiencyReport:
    def test_c15(self):
        report = deficiency_report(build_power_graph(construct_group("cyclic:15")))
        assert (report.deficiency, report.budget, report.overfull) == (8, 6, False)

    def test_k9(self):
        report = deficiency_report(complete_graph(9))
        assert (report.deficiency, report.budget, report.overfull) == (0, 3, True)

    def test_c21(self):
        report = deficiency_report(build_power_graph(construct_group("cyclic:21")))
        assert report.edge_count == 198
        assert (report.deficiency, report.budget, report.overfull) == (12, 9, False)

    def test_budget_absent_for_even_order(self):
        report = deficiency_report(build_power_graph(construct_group("cyclic:8")))
        assert report.budget is None

    def test_budget_threshold_characterizes_overfull(self):
        # for odd n with a full-degree vertex: overfull <=> deficiency <= budget
        for spec in generate_catalog(27):
            group = construct_group(spec)
            if group.order % 2 == 0 or group.order < 3:
                continue
            report = deficiency_report(build_power_graph(group))
            assert report.max_degree == report.n - 1
            assert report.overfull == (report.deficiency <= report.budget), spec


class TestPredictClass:
    @pytest.mark.parametrize(
        "spec,label",
        [
            ("cyclic:27", "class2"),
            ("cyclic:15", "class1"),
            ("cyclic:16", "class1"),
            ("cyclic:1", "class1"),
            ("cyclic:2", "class1"),
            ("cyclic:3", "class2"),
            ("quaternion:2", "class1"),
            ("product:cyclic:3,cyclic:3", "class1"),
        ],
    )
    def test_examples(self, spec, label):
        assert predict_class(construct_group(spec)).class_label == label

    def test_reasons(self):
        assert predict_class(construct_group("cyclic:9")).reason == "odd-prime-power-cyclic-overfull"
        assert predict_class(construct_group("cyclic:6")).reason == "even-order"
        assert predict_class(construct_group("cyclic:15")).reason == "theorem-classification"
        assert predict_class(construct_group("cyclic:1")).reason == "core-small"

    def test_prediction_tracks_overfull_on_catalog(self):
        for spec in generate_catalog(27):
            group = construct_group(spec)
            graph = build_power_graph(group)
            prediction = predict_class(group)
            assert (prediction.class_label == "class2") == is_overfull(graph), spec


class TestCoreCheck:
    def test_dihedral3_single_vertex_core(self):
        witness = core_class1_check(build_power_graph(construct_group("dihedral:3")))
        assert witness is not None
        assert witness.condition == "core-small"
        assert witness.description == "core has 1 vertex"

    def test_q8_two_vertex_core(self):
        witness = core_class1_check(build_power_graph(construct_group("quaternion:2")))
        assert witness is not None
        assert (witness.condition, witness.core_size) == ("core-small", 2)
        assert witness.description == "core has 2 vertices"

    def test_k9_no_witness(self):
        assert core_class1_check(complete_graph(9)) is None

    def test_empty_graph_no_witness(self):
        assert core_class1_check(Graph(0, [])) is None

    def test_acyclic_core_branch(self):
        # star: every vertex has degree <= 3, core of max-degree vertices is edgeless
        from powerchroma import Graph

        star = Graph(5, [(0, i) for i in range(1, 5)])
        witness = core_class1_check(star)
        assert witness is not None and witness.condition == "core-small"
        # three disjoint stars: the three centers form an edgeless, acyclic core
        triple = Graph(
            12,
            [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (8, 9), (8, 10), (8, 11)],
        )
        witness = core_class1_check(triple)
        assert witness is not None
        assert witness.condition == "core-acyclic"
        assert witness.core_size == 3

    def test_core_witness_implies_class1_on_catalog(self):
        for spec in generate_catalog(27):
            group = construct_group(spec)
            graph = build_power_graph(group)
            if core_class1_check(graph) is not None:
                assert predict_class(group).class_label == "class1", spec


CORE_SHAPES = ("edgeless", "forest", "clique", "any")


@st.composite
def planted_core(draw, shape):
    """(graph on <= 12 vertices, its core, whether the core has a cycle).

    A core of the given shape is padded with leaves: each core vertex gets
    leaves up to a common degree above every leaf's 1, so the core is exactly
    the planted vertices. A "clique" core is a clique on some of them, the
    rest isolated, so it can hold a cycle with fewer edges than vertices.
    "any" is a graph with no plan, and its cycle flag is None.
    """
    if shape == "any":
        n = draw(st.integers(1, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graph = Graph(n, [e for e in pairs if draw(st.booleans())])
        top = max(map(int.bit_count, graph.bits))
        return graph, [v for v in range(n) if graph.degree(v) == top], None
    k = draw(st.integers(1, 5))
    clique = draw(st.integers(1, k)) if shape == "clique" else 0
    if shape == "forest":
        parents = [draw(st.integers(-1, v - 1)) for v in range(1, k)]
        edges = [(p, v) for v, p in enumerate(parents, start=1) if p >= 0]
    else:
        edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    degree = [sum(v in e for e in edges) for v in range(k)]
    top = max(max(degree) + 1, 2)
    n = k + sum(top - d for d in degree)
    assume(n <= 12)
    leaf = k
    for v in range(k):
        for _ in range(top - degree[v]):
            edges.append((v, leaf))
            leaf += 1
    return Graph(n, edges), list(range(k)), clique >= 3


class TestCoreCheckAgainstReference:
    def test_catalog_to_120_and_order_21(self):
        for group in catalog_groups_to_120():
            graph = build_power_graph(group)
            assert core_class1_check(graph) == reference_core_class1_check(graph), group.label

    @pytest.mark.parametrize("shape", CORE_SHAPES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, shape, data):
        graph, core, cyclic = data.draw(planted_core(shape))
        top = max(map(int.bit_count, graph.bits))
        assert [v for v in range(graph.n) if graph.degree(v) == top] == core
        if shape == "edgeless":
            assert not any(graph.has_edge(u, v) for u in core for v in core)
        witness = reference_core_class1_check(graph)
        if cyclic is not None:
            assert (witness is None) == cyclic
        assert core_class1_check(graph) == witness


class TestEdgeCountFromOrders:
    def test_small_cases(self):
        # K_9, and cyclic:15 with its eight non-edges between orders 5 and 3
        assert edge_count_from_orders(construct_group("cyclic:9")) == 36
        assert edge_count_from_orders(construct_group("cyclic:15")) == 97
        assert edge_count_from_orders(construct_group("cyclic:1")) == 0

    def test_catalog_to_120_and_order_21(self):
        for group in catalog_groups_to_120():
            assert edge_count_from_orders(group) == build_power_graph(group).edge_count, group.label


class TestIdentityOnlyJoinBudget:
    def test_deficiency_at_least_m(self):
        # odd order with only the identity full-degree forces deficiency >= (n-1)/2
        for spec in generate_catalog(27):
            group = construct_group(spec)
            if group.order % 2 == 0 or group.order < 3:
                continue
            graph = build_power_graph(group)
            if sum(graph.degree(v) == graph.n - 1 for v in range(graph.n)) == 1:
                report = deficiency_report(graph)
                assert report.deficiency >= (group.order - 1) // 2, spec
                assert not report.overfull
