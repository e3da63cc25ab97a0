"""The reference tables under ``tests/data``, the sample order-21 group and the per-test time limit."""

import signal

import pytest

from powerchroma import (
    EdgeColoring,
    ExchangeState,
    base_rotation_coloring,
    build_power_graph,
    color_power_graph,
    construct_group,
    is_cyclic,
    is_overfull,
    parse_coloring_csv,
    predict_class,
    verify_assignment,
    verify_proper,
)
from powerchroma.exchange import _attempt_exchange
from conftest import (
    TEST_SECONDS,
    TimeLimitExceeded,
    c15_reference_coloring,
    c15_reference_csv,
    k15_base_csv,
    k15_base_table,
    k15_exchanged_csv,
    k15_exchanged_table,
    nonabelian21_group,
    time_limit,
)


class TestTimeLimit:
    def test_a_loop_without_end_is_stopped(self):
        with pytest.raises(TimeLimitExceeded, match="time limit of 0.2 s exceeded"):
            with time_limit(0.2):
                while True:
                    pass

    def test_the_outer_limit_is_restored(self):
        # every test runs under the suite's own limit, which a nested one must re-arm
        handler = signal.getsignal(signal.SIGALRM)
        with time_limit(5):
            assert 4 < signal.getitimer(signal.ITIMER_REAL)[0] <= 5
        left, _ = signal.getitimer(signal.ITIMER_REAL)
        assert 0 < left <= TEST_SECONDS
        assert signal.getsignal(signal.SIGALRM) is handler


class TestReferenceColoring:
    def test_total_proper_fourteen_colors(self):
        palette, mapping = c15_reference_coloring()
        graph = build_power_graph(construct_group("cyclic:15"))
        report = verify_assignment(graph, mapping, palette)
        assert report.valid, report.describe()
        assert palette == 14
        assert report.colored_count == 97
        assert report.distinct_colors == 14

    def test_csv_parses_back_identically(self):
        for text in (c15_reference_csv(), k15_base_csv(), k15_exchanged_csv()):
            palette, mapping = parse_coloring_csv(text, 15)
            assert palette == 14
            assert len(mapping) in (97, 98)

    def test_reference_csv_round_trips(self):
        from powerchroma import coloring_to_csv

        palette, mapping = c15_reference_coloring()
        graph = build_power_graph(construct_group("cyclic:15"))
        rebuilt = EdgeColoring(graph, palette, sorted(mapping.items()))
        again_palette, again = parse_coloring_csv(coloring_to_csv(rebuilt), 15)
        assert (again_palette, again) == (palette, mapping)


class TestBaseTable:
    def test_matches_rotation_construction_exactly(self):
        palette, mapping = k15_base_table()
        coloring, matching = base_rotation_coloring(15)
        assert palette == 14
        assert mapping == coloring.edge_color
        # the uncolored set is exactly the last rotation class
        uncovered = set(coloring.graph.edges()) - set(mapping)
        assert uncovered == set(matching)

    def test_per_class_sets(self):
        from powerchroma import rotation_classes

        _, mapping = k15_base_table()
        classes = rotation_classes(15)
        by_color = {}
        for e, c in mapping.items():
            by_color.setdefault(c, set()).add(e)
        for color in range(14):
            assert by_color[color] == set(classes[color])


class TestExchangedTable:
    def test_reached_by_the_documented_step(self):
        state = ExchangeState(build_power_graph(construct_group("cyclic:15")))
        assert _attempt_exchange(state, (5, 6), (5, 10))
        _, expected = k15_exchanged_table()
        assert state.edge_color == expected

    def test_differs_from_base_on_five_cells(self):
        _, base = k15_base_table()
        _, exchanged = k15_exchanged_table()
        changed = {e for e in base if e in exchanged and base[e] != exchanged[e]}
        removed = set(base) - set(exchanged)
        added = set(exchanged) - set(base)
        assert len(changed) == 4  # the inverted alternating path
        assert len(removed) == 1 and len(added) == 1

    def test_remains_proper(self):
        from powerchroma import complete_graph

        palette, mapping = k15_exchanged_table()
        universe = complete_graph(15)
        report = verify_assignment(universe, mapping, palette)
        assert not report.conflicts
        assert not report.foreign_edges


class TestNonabelian21:
    def test_structure(self):
        group = nonabelian21_group()
        assert group.order == 21
        assert not is_cyclic(group)
        assert any(
            group.table[a][b] != group.table[b][a]
            for a in range(21)
            for b in range(21)
        )
        assert sorted(set(group.element_orders)) == [1, 3, 7]

    def test_classification(self):
        group = nonabelian21_group()
        graph = build_power_graph(group)
        assert graph.edge_count == 42
        assert not is_overfull(graph)
        assert [v for v in range(21) if graph.degree(v) == 20] == [0]
        assert predict_class(group).class_label == "class1"

    def test_witness(self):
        group = nonabelian21_group()
        result = color_power_graph(group)
        report = verify_proper(result.graph, result.coloring)
        assert report.valid
        assert result.class_label == "class1"
        assert result.colors_used == 20
