"""The exchange engine: single steps, the full transform, and group dispatch."""

import functools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerchroma import (
    EdgeColoring,
    ExchangeFailure,
    ExchangeState,
    Graph,
    GroupColoring,
    base_rotation_coloring,
    build_power_graph,
    color_graph,
    color_power_graph,
    complete_graph,
    construct_group,
    deficiency_report,
    exchange_coloring,
    is_overfull,
    make_edge,
    max_degree,
    round_robin_coloring,
    verify_assignment,
    verify_proper,
)
from powerchroma.coloring import _closed_form
from powerchroma.exchange import (
    _attempt_exchange,
    _color_exact,
    _drain,
    _labelled,
    _plan,
    _relevant,
    _sacrifice_candidates,
    _try_add,
)
from powerchroma.overfull import predict_class
from powerchroma.toolkit import generate_catalog

from conftest import (
    k15_exchanged_table,
    random_graph,
    reference_attempt_exchange,
    reference_base_edge_color,
    reference_drain,
    reference_finish,
)


def check_state(state: ExchangeState) -> None:
    """Independent invariants: proper, bookkeeping consistent with the edge set."""
    at = [dict() for _ in range(state.graph.n)]
    for e, c in state.edge_color.items():
        assert 0 <= c < state.palette_size
        for x in e:
            assert c not in at[x], f"color {c} duplicated at vertex {x}"
            at[x][c] = e
    colored = set(state.edge_color)
    target = set(state.target.edges())
    assert state.extra == colored - target
    assert state.missing == target - colored
    assert not state.banned  # a sacrifice chain lifts its ban as it returns


def random_matching_target(rng: random.Random, n: int) -> Graph:
    verts = list(range(n))
    rng.shuffle(verts)
    matching = {make_edge(verts[2 * i], verts[2 * i + 1]) for i in range(n // 2)}
    edges = set(complete_graph(n).edges()) - matching
    return Graph(n, edges)


def odd_class1_specs(max_order: int) -> list[str]:
    specs = []
    for spec in generate_catalog(max_order).specs:
        group = construct_group(spec)
        if group.order >= 3 and group.order % 2 and predict_class(group).class_label == "class1":
            specs.append(spec)
    return specs


def assert_drains_alike(target: Graph) -> None:
    """The skipping drain ends exactly where the full-walk reference does.

    The drain makes exactly the attempts the skip lemma cannot settle, which
    the reference tallies as ``unsettled``; every other counter is equal.
    """
    fast, slow = ExchangeState(target), ExchangeState(target)
    assert _drain(fast, 3) == reference_drain(slow, 3)
    assert fast.edge_color == slow.edge_color
    assert fast.extra == slow.extra and fast.missing == slow.missing
    expected = dict(slow.stats, attempts=slow.stats["unsettled"])
    del expected["unsettled"]
    assert fast.stats == expected
    check_state(fast)


class TestExchangeState:
    def test_initial_state_for_c15(self):
        state = ExchangeState(build_power_graph(construct_group("cyclic:15")))
        assert len(state.edge_color) == 98
        assert len(state.extra) == 8
        assert len(state.missing) == 7
        check_state(state)

    def test_closed_form_base_matches_the_checked_base(self, rng):
        for n in range(3, 256, 2):
            base, left_out = base_rotation_coloring(n)
            state = ExchangeState(complete_graph(n))
            assert state.at == base.at, n
            assert state.edge_color == base.edge_color, n
            assert state.extra == set() and state.missing == set(left_out), n
            if n < 64 or n == 255:  # the dictcomp's order, and the differences against a random target
                assert list(state.edge_color.items()) == list(reference_base_edge_color(n).items()), n
                target = random_graph(rng, n)
                state = ExchangeState(target)
                edges = set(target.edges())
                assert state.extra == base.edge_color.keys() - edges, n
                assert state.missing == edges - base.edge_color.keys(), n
                assert state.target is target

    def test_even_order_rejected(self):
        with pytest.raises(ValueError):
            ExchangeState(complete_graph(4))

    def test_is_an_edge_coloring_of_the_complete_graph(self):
        state = ExchangeState(build_power_graph(construct_group("cyclic:15")))
        assert isinstance(state, EdgeColoring)
        assert state.graph.edges() == complete_graph(15).edges()
        assert state.palette_size == 14
        report = verify_assignment(state.graph, state.edge_color, 14)
        assert not report.conflicts and len(report.uncolored) == 7


class TestExchangeEdge:
    def test_worked_example_reproduces_shipped_table(self):
        state = ExchangeState(build_power_graph(construct_group("cyclic:15")))
        assert _attempt_exchange(state, (5, 6), (5, 10))
        _, expected = k15_exchanged_table()
        assert state.edge_color == expected
        check_state(state)

    def test_direct_conjugate_recolor(self):
        # removing vertex 5's display-color-10 edge lets (5, 10) take that color
        state = ExchangeState(build_power_graph(construct_group("cyclic:15")))
        before = dict(state.stats)
        assert _attempt_exchange(state, (0, 5), (5, 10))
        assert state.edge_color[make_edge(5, 10)] == 9
        assert state.stats["exchanges"] == before["exchanges"] + 1
        assert state.stats["inversions"] == before["inversions"]
        check_state(state)

    def test_step_failure_leaves_state_unchanged(self):
        # a remove touching neither endpoint of a non-conjugate missing edge
        # cannot help at depth 1: the lone alternating path joins the endpoints
        state = ExchangeState(build_power_graph(construct_group("cyclic:15")))
        snap = state.snapshot()
        assert not _attempt_exchange(state, (3, 5), (1, 14))
        assert state.edge_color == snap[0]
        assert state.at == snap[1]
        assert state.missing == snap[2]

    def test_steps_preserve_properness_and_count(self, rng):
        steps = 0
        for n in (5, 7, 9, 11, 13):
            for _ in range(15):
                target = random_matching_target(rng, n)
                state = ExchangeState(target)
                size = len(state.edge_color)
                while state.missing:
                    t = min(state.missing)
                    for r in sorted(state.extra):
                        if _attempt_exchange(state, r, t):
                            break
                    else:
                        break  # needs a deeper schedule; not this test's concern
                    check_state(state)
                    assert len(state.edge_color) == size
                    steps += 1
        assert steps >= 100


class TestSacrificeCandidates:
    def test_the_unbanned_colored_target_edges_at_t(self, rng):
        targets = [build_power_graph(construct_group("cyclic:15"))]
        targets += [random_matching_target(rng, n) for n in (7, 9, 11) for _ in range(3)]
        for target in targets:
            state = ExchangeState(target)
            edges = set(target.edges())
            for t in sorted(state.missing):
                at_t = {e for e in state.edge_color if e in edges and set(e) & set(t)}
                found = _sacrifice_candidates(state, t)
                assert len(found) == len(set(found)) and set(found) == at_t
                state.banned.add(min(at_t))
                assert set(_sacrifice_candidates(state, t)) == at_t - {min(at_t)}
                state.banned.clear()


class TestSkipLemma:
    """The drain settles attempts whose extra edge cannot change any walk without walking them."""

    @pytest.mark.parametrize("spec", odd_class1_specs(63))
    def test_drain_matches_full_walk_on_catalog(self, spec):
        assert_drains_alike(build_power_graph(construct_group(spec)))

    @pytest.mark.parametrize("n", [7, 9, 11, 13])
    def test_drain_matches_full_walk_on_random_targets(self, rng, n):
        for _ in range(12):
            assert_drains_alike(random_matching_target(rng, n))

    def test_skipped_attempts_fail_and_leave_the_state(self, rng):
        targets = [build_power_graph(construct_group(s)) for s in ("cyclic:15", "cyclic:21")]
        targets += [random_matching_target(rng, n) for n in (9, 11, 13) for _ in range(3)]
        checked = 0
        for target in targets:
            state = ExchangeState(target)
            while state.missing:
                for t in sorted(state.missing):
                    # every color class is a near-perfect matching: no removal, no way in
                    assert _plan(state, t) is None
                    relevant = set(_relevant(state, t))
                    for r in sorted(state.extra - relevant):
                        assert r[0] not in t and r[1] not in t
                        for attempt in (_attempt_exchange, reference_attempt_exchange):
                            snap = state.snapshot()
                            assert not attempt(state, r, t)
                            assert state.edge_color == snap[0]
                            assert state.at == snap[1]
                            assert state.missing == snap[2]
                            checked += 1
                if not any(_try_add(state, t, 3) for t in sorted(state.missing)):
                    break
                check_state(state)
        assert checked >= 1000


def is_prime_power(n: int) -> bool:
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


# The odd cyclic groups of orders 15-255 that are not overfull (not of prime-power
# order), and three products that need exchanges.
DRAINED = [f"cyclic:{n}" for n in range(15, 256, 2) if not is_prime_power(n)] + [
    "product:cyclic:3,cyclic:63", "product:cyclic:3,cyclic:75", "product:cyclic:5,cyclic:25",
]


@functools.cache
def drained(spec: str):
    """``exchange_coloring`` of the spec's power graph, with what the first-written code gave.

    Returns the coloring, the checked refill of the drained state, whether the
    base listed its pairs as the dictcomp did, and the drain's counters with
    the number of snapshots it took.
    """
    import powerchroma.exchange as exchange_module

    target = build_power_graph(construct_group(spec))
    seen, snapshots = [], []
    snapshot = ExchangeState.snapshot

    def drain(state, depth):
        base = list(state.edge_color.items()) == list(reference_base_edge_color(target.n).items())
        ok = _drain(state, depth)
        seen.append((reference_finish(state, target), base, dict(state.stats)))
        return ok

    def counted_snapshot(state):
        snapshots.append(None)
        return snapshot(state)

    exchange_module._drain = drain
    ExchangeState.snapshot = counted_snapshot
    try:
        coloring = exchange_coloring(target)
    finally:
        exchange_module._drain = _drain
        ExchangeState.snapshot = snapshot
    ((reference, base, stats),) = seen
    return coloring, reference, base, dict(stats, snapshots=len(snapshots))


class TestExchangeFinish:
    def test_the_drained_groups(self):
        assert len(DRAINED) == 68 and "cyclic:255" in DRAINED and "cyclic:243" not in DRAINED

    @pytest.mark.parametrize("spec", DRAINED)
    def test_matches_the_checked_refill(self, spec):
        coloring, reference, base, _ = drained(spec)
        assert base
        assert coloring.graph is reference.graph and coloring.palette_size == reference.palette_size
        assert list(coloring.items()) == list(reference.items())
        assert coloring.at == reference.at
        assert verify_proper(coloring.graph, coloring).valid

    def test_the_drain_counters_are_pinned(self):
        # the totals of the drain that copied the state before every sacrifice it
        # tried (539 copies); a sacrifice is now planned first and copied only
        # when it trades, 176 fewer times
        totals = {}
        for spec in DRAINED:
            for key, value in drained(spec)[3].items():
                totals[key] = totals.get(key, 0) + value
        assert totals == {
            "attempts": 6836, "exchanges": 5107, "inversions": 4999, "chain_calls": 5107,
            "restores": 34, "snapshots": 363,
        }


class TestExchangeColoring:
    def test_base_target_needs_no_exchanges(self):
        n = 15
        full = complete_graph(n)
        from powerchroma import base_rotation_coloring

        base, matching = base_rotation_coloring(n)
        target = Graph(n, set(full.edges()) - set(matching))
        coloring = exchange_coloring(target)
        assert coloring.edge_color == base.edge_color
        report = verify_proper(target, coloring)
        assert report.valid and report.distinct_colors == n - 1

    @pytest.mark.parametrize("spec,colors", [("cyclic:15", 14), ("cyclic:21", 20)])
    def test_dense_cyclic_targets(self, spec, colors):
        graph = build_power_graph(construct_group(spec))
        coloring = exchange_coloring(graph)
        report = verify_proper(graph, coloring)
        assert report.valid
        assert report.distinct_colors == colors

    def test_random_matchings_small(self, rng):
        for n in (3, 5, 7, 9, 11):
            for _ in range(20):
                target = random_matching_target(rng, n)
                coloring = exchange_coloring(target)
                report = verify_proper(target, coloring)
                assert report.valid and report.palette_size == n - 1

    def test_overfull_target_rejected(self):
        with pytest.raises(ValueError, match="overfull"):
            exchange_coloring(complete_graph(9))

    def test_even_target_rejected(self):
        with pytest.raises(ValueError):
            exchange_coloring(complete_graph(4))

    def test_hubless_target_rejected(self):
        # 5 vertices, max degree 2 < n-1
        with pytest.raises(ValueError, match="adjacent"):
            exchange_coloring(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))

    def test_deterministic(self):
        graph = build_power_graph(construct_group("cyclic:21"))
        first = exchange_coloring(graph)
        second = exchange_coloring(graph)
        assert first.edge_color == second.edge_color

    @pytest.mark.parametrize("spec", ["cyclic:15", "cyclic:21"])
    @pytest.mark.parametrize("budget", [0, 1, 4, 7])
    def test_the_budget_counts_chain_calls(self, monkeypatch, spec, budget):
        import powerchroma.exchange as exchange_module

        # attempts before and after each _try_add call; after each one within the budget
        calls, within, searched, states = [], [], [], []
        try_add, relevant, drain = (
            exchange_module._try_add, exchange_module._relevant, exchange_module._drain
        )

        def counted_try_add(state, t, depth):
            index, before = len(calls), state.stats["attempts"]
            calls.append(None)
            ok = try_add(state, t, depth)
            calls[index] = (before, state.stats["attempts"])
            if index < budget:
                within.append(state.stats["attempts"])
            return ok

        def counted_relevant(state, t):
            searched.append(t)
            return relevant(state, t)

        def kept_drain(state, depth):
            states.append(state)
            return drain(state, depth)

        monkeypatch.setattr(exchange_module, "NODE_BUDGET", budget)
        monkeypatch.setattr(exchange_module, "_try_add", counted_try_add)
        monkeypatch.setattr(exchange_module, "_relevant", counted_relevant)
        monkeypatch.setattr(exchange_module, "_drain", kept_drain)
        graph = build_power_graph(construct_group(spec))
        with pytest.raises(ExchangeFailure) as err:
            exchange_coloring(graph)
        failure, (state,) = err.value, states
        # every call is counted, and only the first ``budget`` of them search
        assert failure.stats["chain_calls"] == len(calls) > budget
        assert len(searched) == budget
        # a call past the budget makes no attempt, and none is made once those within it return
        assert all(before == after for before, after in calls[budget:])
        assert failure.stats["attempts"] == (within[-1] if budget else 0)
        colored, edges = set(state.edge_color), set(graph.edges())
        assert failure.remaining_extra == tuple(sorted(colored - edges))
        assert failure.remaining_missing == tuple(sorted(edges - colored))

    def test_exhausted_ladder_reports_diagnostics(self, monkeypatch):
        import powerchroma.exchange as exchange_module

        monkeypatch.setattr(exchange_module, "NODE_BUDGET", 0)
        graph = build_power_graph(construct_group("cyclic:15"))
        with pytest.raises(ExchangeFailure) as err:
            exchange_coloring(graph)
        assert err.value.remaining_missing  # diagnostics carried
        assert err.value.stats["attempts"] >= 0


class TestColorPowerGraph:
    def test_even_order_round_robin_restriction(self):
        result = color_power_graph(construct_group("cyclic:16"))
        assert result.class_label == "class1"
        assert result.strategy == "roundrobin"
        assert result.colors_used == 15
        assert verify_proper(result.graph, result.coloring).valid

    def test_odd_prime_power_rotation_with_certificate(self):
        result = color_power_graph(construct_group("cyclic:9"))
        assert result.class_label == "class2"
        assert result.strategy == "sp"
        assert result.colors_used == 9
        assert result.certificate is not None and result.certificate.overfull
        assert verify_proper(result.graph, result.coloring).valid

    def test_odd_noncyclic_gets_max_degree_coloring(self):
        result = color_power_graph(construct_group("product:cyclic:3,cyclic:3"))
        assert result.class_label == "class1"
        assert result.colors_used == 8 == max_degree(result.graph)
        assert verify_proper(result.graph, result.coloring).valid

    def test_trivial_group(self):
        result = color_power_graph(construct_group("cyclic:1"))
        assert result.class_label == "class1"
        assert result.colors_used == 0
        assert verify_proper(result.graph, result.coloring).valid

    def test_forced_strategies(self):
        # each construction called directly, on a graph the dispatch would not give it
        graph = build_power_graph(construct_group("cyclic:15"))
        sp = _labelled(_closed_form(graph), "sp")
        assert sp.colors_used == 15  # one more than the optimum, still proper
        assert verify_proper(sp.graph, sp.coloring).valid
        assert sp.class_label == "indeterminate"  # 15 colors and no overfull certificate
        assert sp.certificate is None
        exact = _color_exact(build_power_graph(construct_group("cyclic:5")))
        assert (exact.strategy, exact.class_label, exact.colors_used) == ("exact", "class2", 5)

    def test_class2_from_the_graph_alone(self, monkeypatch):
        def no_prediction(group):
            raise AssertionError("predict_class was called")

        for name, module in list(sys.modules.items()):
            if name.startswith("powerchroma") and hasattr(module, "predict_class"):
                monkeypatch.setattr(module, "predict_class", no_prediction)
        result = color_graph(build_power_graph(construct_group("cyclic:27")))
        assert (result.strategy, result.class_label) == ("sp", "class2")
        assert result.certificate == deficiency_report(result.graph)
        assert result.certificate.overfull
        assert result.colors_used == max_degree(result.graph) + 1

    @pytest.mark.parametrize("spec, strategy", [("cyclic:12", "roundrobin"), ("cyclic:27", "sp")])
    def test_direct_colorings_build_no_complete_graph(self, monkeypatch, spec, strategy):
        import powerchroma.coloring as coloring_module
        import powerchroma.exchange as exchange_module

        def refuse(*args, **kwargs):
            raise AssertionError("built a coloring of K_n")

        for module in (coloring_module, exchange_module):
            for name in ("complete_graph", "round_robin_coloring", "restrict_coloring"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        result = color_graph(build_power_graph(construct_group(spec)))
        assert result.strategy == strategy
        assert verify_proper(result.graph, result.coloring).valid

    def test_strategy_validation(self):
        with pytest.raises(ValueError, match="round robin needs an even n >= 2, got 5"):
            round_robin_coloring(5)
        # the empty graph is trivial, as the one-vertex graph is
        result = color_graph(Graph(0, []))
        assert (result.strategy, result.class_label, result.colors_used) == ("trivial", "class1", 0)
        assert verify_proper(result.graph, result.coloring).valid

    def test_auto_escalates_to_exact_search(self, monkeypatch):
        import powerchroma.exchange as exchange_module

        def always_fail(target, n=None, **kwargs):
            raise ExchangeFailure([], target.edges()[:1], {"attempts": 0})

        monkeypatch.setattr(exchange_module, "exchange_coloring", always_fail)
        result = color_power_graph(construct_group("product:cyclic:3,cyclic:3"))
        assert result.strategy == "exact"
        assert result.class_label == "class1"
        assert result.colors_used == 8
        assert "exchange_failure" in result.stats
        assert verify_proper(result.graph, result.coloring).valid


@st.composite
def simple_graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def check_any_graph(graph: Graph) -> GroupColoring:
    """``color_graph`` gives a verified coloring with at most max_degree + 1 colors, labelled by proof."""
    result = color_graph(graph)
    delta = max_degree(graph)
    assert verify_proper(graph, result.coloring).valid
    assert result.colors_used <= delta + 1
    if result.colors_used == delta:
        assert result.class_label == "class1"
    else:
        assert result.class_label == ("class2" if is_overfull(graph) else "indeterminate")
    return result


class TestColorAnyGraph:
    """Graphs with no full-degree vertex, which no power graph is, go to exact search."""

    @given(simple_graphs())
    @settings(max_examples=300, deadline=None)
    def test_every_small_graph(self, graph):
        check_any_graph(graph)

    def test_two_disjoint_edges(self):
        result = check_any_graph(Graph(5, [(0, 1), (2, 3)]))
        assert (result.strategy, result.class_label, result.colors_used) == ("exact", "class1", 1)

    def test_five_cycle_gets_three_colors(self):
        # overfull: 5 edges, at most 2 in a color class, so 3 colors and not 5
        result = check_any_graph(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))
        assert (result.strategy, result.class_label, result.colors_used) == ("exact", "class2", 3)

    def test_petersen_graph_is_indeterminate(self):
        # not overfull (15 edges, at most 5 in a color class), yet no 3-coloring exists
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        result = check_any_graph(Graph(10, outer + spokes + inner))
        assert (result.strategy, result.class_label, result.colors_used) == ("exact", "indeterminate", 4)

    def test_empty_graph(self):
        result = check_any_graph(Graph(0, []))
        assert (result.strategy, result.colors_used) == ("trivial", 0)
