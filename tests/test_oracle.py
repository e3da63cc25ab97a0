"""Exhaustive edge-coloring oracle and the fan-rotation fallback."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerchroma import (
    DEFAULT_NODE_BUDGET,
    Graph,
    build_power_graph,
    complete_graph,
    construct_group,
    exact_chromatic_index,
    generate_catalog,
    is_k_edge_colorable,
    max_degree,
    misra_gries_coloring,
    verify_proper,
)
from powerchroma.oracle import _descent_order
from conftest import (
    random_bipartite,
    random_graph,
    reference_is_k_edge_colorable,
    reference_misra_gries,
    small_catalog_oracle,
)


class TestIsKEdgeColorable:
    def test_counting_shortcut_k3(self):
        result = is_k_edge_colorable(complete_graph(3), 2)
        assert result.status == "no"
        assert result.nodes_explored == 0  # 3 edges > 2 * floor(3/2)

    def test_path_two_colors(self):
        path = Graph(3, [(0, 1), (1, 2)])
        result = is_k_edge_colorable(path, 2)
        assert result.status == "yes"
        assert verify_proper(path, result.witness).valid

    def test_odd_cycle(self):
        c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert is_k_edge_colorable(c5, 2).status == "no"
        result = is_k_edge_colorable(c5, 3)
        assert result.status == "yes"
        assert verify_proper(c5, result.witness).valid

    def test_empty_graph(self):
        graph = Graph(4, [])
        result = is_k_edge_colorable(graph, 0)
        assert result.status == "yes"
        assert verify_proper(graph, result.witness).valid

    def test_budget_exhaustion(self):
        result = is_k_edge_colorable(complete_graph(10), 9, budget=5)
        assert result.status == "indeterminate"
        assert result.nodes_explored > 5

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            is_k_edge_colorable(complete_graph(3), -1)


def search_outcomes(graph: Graph, budget: int) -> dict:
    """(k, budget) -> result for k = max_degree - 1 .. max_degree + 1.

    The reference search, in its degree-sum order, decides each case
    independently. The two orders visit different nodes, so on the way each
    search is checked for what any fixed order must give: the reference's
    status when both are determinate, a decision at the large budget wherever
    the reference reaches one, ``indeterminate`` exactly past the budget, and
    a proper witness within k colors. The order is checked to be
    a permutation of the edges that starts with the pivot's.
    """
    out = {}
    delta = max_degree(graph)
    degrees = [graph.degree(v) for v in range(graph.n)]
    pivot = degrees.index(delta)
    for k in range(max(delta - 1, 0), delta + 2):
        if graph.edge_count:
            order = _descent_order(graph, k, degrees, pivot)
            assert sorted(order) == graph.edges()
            assert all(pivot in e for e in order[:delta])
        for b in (budget, 50, 3):
            got = is_k_edge_colorable(graph, k, b)
            ref = reference_is_k_edge_colorable(graph, k, b)
            if "indeterminate" not in (got.status, ref.status):
                assert got.status == ref.status, (k, b)
            if b == budget and ref.status != "indeterminate":
                assert got.status != "indeterminate", (k, b)
            assert (got.status == "indeterminate") == (got.nodes_explored > b), (k, b)
            if got.status == "yes":
                assert verify_proper(graph, got.witness).valid, (k, b)
                assert got.witness.colors_used() <= k, (k, b)
            out[k, b] = got
    return out


class TestAgainstReference:
    """The most-constrained-first order decides what the degree-sum order decides."""

    @pytest.mark.parametrize("spec", generate_catalog(16).specs)
    def test_catalog_groups(self, spec):
        graph = build_power_graph(construct_group(spec))
        # past order 12, the reference search on cyclic:13 to 15 at k >= max_degree
        # runs to the 10^7-node default budget, seconds apiece, so searches there
        # stop at 10^5 nodes
        outcomes = search_outcomes(graph, DEFAULT_NODE_BUDGET if graph.n <= 12 else 100_000)
        if spec == "cyclic:12":
            result = outcomes[11, DEFAULT_NODE_BUDGET]
            # the first descent colors every edge, one node per edge
            assert graph.edge_count == 56
            assert (result.status, result.nodes_explored) == ("yes", 56)

    def test_random_graphs(self, rng):
        for _ in range(100):
            search_outcomes(random_graph(rng, rng.randrange(1, 9), rng.random()), DEFAULT_NODE_BUDGET)


class TestExactChromaticIndex:
    def test_star(self):
        star = Graph(5, [(0, i) for i in range(1, 5)])
        result = exact_chromatic_index(star)
        assert result.chromatic_index == 4

    def test_k9_class2(self):
        result = exact_chromatic_index(complete_graph(9))
        assert result.chromatic_index == 9
        assert verify_proper(complete_graph(9), result.witness).valid

    def test_product_3_3(self):
        graph = build_power_graph(construct_group("product:cyclic:3,cyclic:3"))
        assert graph.edge_count == 12 and max_degree(graph) == 8
        result = exact_chromatic_index(graph)
        assert result.chromatic_index == 8
        assert verify_proper(graph, result.witness).valid

    @pytest.mark.parametrize("n", range(2, 11))
    def test_complete_graph_ground_truth(self, n):
        result = exact_chromatic_index(complete_graph(n))
        assert result.chromatic_index == (n - 1 if n % 2 == 0 else n)
        assert verify_proper(complete_graph(n), result.witness).valid

    def test_petersen_class2(self):
        # 15 edges fit in 3 * floor(10/2) colors, so only the search can say no
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        petersen = Graph(10, outer + spokes + inner)
        result = exact_chromatic_index(petersen)
        assert result.chromatic_index == 4
        assert result.nodes_explored > 0
        assert verify_proper(petersen, result.witness).valid

    def test_a_small_budget_gives_no_answer(self):
        result = exact_chromatic_index(complete_graph(10), budget=5)
        assert (result.chromatic_index, result.witness) == (None, None)
        assert result.budget_exhausted and result.nodes_explored > 5

    def test_edgeless(self):
        result = exact_chromatic_index(Graph(3, []))
        assert result.chromatic_index == 0

    def test_random_graphs_within_vizing_band(self, rng):
        for _ in range(200):
            n = rng.randrange(2, 10)
            graph = random_graph(rng, n, 0.5)
            result = exact_chromatic_index(graph)
            assert not result.budget_exhausted
            delta = max_degree(graph)
            assert delta <= result.chromatic_index <= delta + 1 or delta == 0
            assert verify_proper(graph, result.witness).valid
            assert result.witness.colors_used() == result.chromatic_index

    def test_bipartite_equals_max_degree(self, rng):
        # König: bipartite graphs are always class 1
        for _ in range(40):
            n = rng.randrange(2, 11)
            graph = random_bipartite(rng, n, 0.6)
            if graph.edge_count == 0:
                continue
            result = exact_chromatic_index(graph)
            assert result.chromatic_index == max_degree(graph)

    def test_oracle_agrees_with_prediction_small_catalog(self):
        for spec, graph, prediction, result in small_catalog_oracle():
            assert not result.budget_exhausted, spec
            expected = max_degree(graph) + (1 if prediction.class_label == "class2" else 0)
            assert result.chromatic_index == expected, spec


class TestMisraGries:
    def test_uses_at_most_delta_plus_one(self, rng):
        for _ in range(150):
            n = rng.randrange(2, 13)
            graph = random_graph(rng, n, 0.55)
            coloring = misra_gries_coloring(graph)
            report = verify_proper(graph, coloring)
            assert report.valid, report.describe()
            assert coloring.palette_size <= max_degree(graph) + 1

    def test_complete_graphs(self):
        for n in range(2, 12):
            graph = complete_graph(n)
            coloring = misra_gries_coloring(graph)
            assert verify_proper(graph, coloring).valid

    def test_power_graphs(self):
        for spec in ("cyclic:15", "dihedral:6", "quaternion:3"):
            graph = build_power_graph(construct_group(spec))
            coloring = misra_gries_coloring(graph)
            assert verify_proper(graph, coloring).valid


@st.composite
def small_graphs(draw):
    """A graph on up to 12 vertices, each pair an edge with even odds."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, kept in zip(pairs, keep) if kept])


def assert_same_misra_gries(graph: Graph) -> None:
    coloring, expected = misra_gries_coloring(graph), reference_misra_gries(graph)
    assert list(coloring.items()) == list(expected.items())
    assert coloring.at == expected.at


class TestMisraGriesAgainstReference:
    """The fan read off the table picks the vertex the neighbor scan picks."""

    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    def test_random_graphs(self, graph):
        assert_same_misra_gries(graph)

    def test_cyclic_25(self):
        assert_same_misra_gries(build_power_graph(construct_group("cyclic:25")))
