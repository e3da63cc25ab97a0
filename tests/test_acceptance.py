"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import random
import time

from powerchroma import (
    Edge,
    EdgeColoring,
    ExchangeState,
    Graph,
    base_rotation_coloring,
    build_power_graph,
    color_power_graph,
    complete_graph,
    construct_group,
    euler_phi,
    exact_chromatic_index,
    exchange_coloring,
    factorize,
    generate_catalog,
    is_cyclic,
    is_overfull,
    make_edge,
    max_degree,
    misra_gries_coloring,
    predict_class,
    verify_assignment,
    verify_proper,
)
from powerchroma.exchange import _attempt_exchange
from conftest import (
    c15_reference_coloring,
    k15_base_table,
    k15_exchanged_table,
    kempe_flip,
    neighbor_at,
    nonabelian21_group,
    random_bipartite,
    random_graph,
    small_catalog_oracle,
)


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_edge_census():
    started = time.perf_counter()
    graph = build_power_graph(construct_group("cyclic:15"))
    non_edges = [e for e in complete_graph(15).edges() if not graph.has_edge(*e)]
    expected = sorted(
        make_edge(a, b)
        for a, b in [(3, 5), (3, 10), (6, 5), (6, 10), (9, 5), (9, 10), (12, 5), (12, 10)]
    )
    elapsed = time.perf_counter() - started
    ok = graph.edge_count == 97 and non_edges == expected and elapsed < 1.0
    report(1, ok, f"97 edges, 8 listed non-edges, {elapsed * 1000:.0f} ms")


def test_criterion_2_overfull_iff_sweep():
    started = time.perf_counter()
    mismatches = []
    groups = [construct_group(spec) for spec in generate_catalog(48)]
    groups.append(nonabelian21_group())
    for group in groups:
        graph = build_power_graph(group)
        theorem = (
            is_cyclic(group)
            and group.order % 2 == 1
            and len(factorize(group.order)) == 1
            and group.order >= 3
        )
        if is_overfull(graph) != theorem:
            mismatches.append(group.label)
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 30.0
    report(2, ok, f"{len(groups)} groups, mismatches={mismatches}, {elapsed:.2f} s")


def test_criterion_3_cameron_trichotomy():
    mismatches = []
    checked = 0
    for spec in generate_catalog(48):
        group = construct_group(spec)
        if group.order < 2:
            continue  # the size-|S| cases assume at least two vertices
        graph = build_power_graph(group)
        size = sum(graph.degree(v) == graph.n - 1 for v in range(graph.n))
        if is_cyclic(group):
            expected = group.order if len(factorize(group.order)) == 1 else 1 + euler_phi(group.order)
        elif spec.startswith("quaternion:"):
            m = int(spec.split(":")[1])
            expected = 2 if m & (m - 1) == 0 else 1  # only 2-power members are generalized quaternion
        else:
            expected = 1
        checked += 1
        if size != expected:
            mismatches.append((spec, size, expected))
    report(3, not mismatches, f"{checked} groups, mismatches={mismatches}")


def test_criterion_4_class_witnesses():
    started = time.perf_counter()
    failures = []
    named = {}
    for spec in generate_catalog(33):
        group = construct_group(spec)
        prediction = predict_class(group)
        result = color_power_graph(group)
        check = verify_proper(result.graph, result.coloring)
        delta = max_degree(result.graph)
        expected = delta + (1 if prediction.class_label == "class2" else 0)
        ok = (
            check.valid
            and result.class_label == prediction.class_label
            and result.coloring.colors_used() == expected
        )
        if prediction.class_label == "class2":
            ok = ok and result.certificate is not None and result.certificate.overfull
        if not ok:
            failures.append(spec)
        named[spec] = result.coloring.colors_used()
    elapsed = time.perf_counter() - started
    pinned = (
        named.get("cyclic:15") == 14
        and named.get("cyclic:21") == 20
        and named.get("cyclic:33") == 32
        and named.get("product:cyclic:3,cyclic:3") == 8
    )
    ok = not failures and pinned and elapsed < 120.0
    report(
        4,
        ok,
        f"{len(named)} witnesses verified, C15={named.get('cyclic:15')} "
        f"C21={named.get('cyclic:21')} C33={named.get('cyclic:33')} "
        f"C3xC3={named.get('product:cyclic:3,cyclic:3')}, {elapsed:.2f} s",
    )


def test_criterion_5_reference_tables():
    graph = build_power_graph(construct_group("cyclic:15"))

    palette, mapping = c15_reference_coloring()
    check = verify_assignment(graph, mapping, palette)
    table1_ok = check.valid and palette == 14 and check.colored_count == 97
    detail_1 = "reference table proper" if table1_ok else check.describe()

    base_palette, base_mapping = k15_base_table()
    coloring, matching = base_rotation_coloring(15)
    table2_ok = base_mapping == coloring.edge_color and base_palette == 14
    classes_ok = set(coloring.graph.edge_set) - set(base_mapping) == set(matching)

    state = ExchangeState(graph)
    copy = EdgeColoring(state.graph, state.palette_size, state.edge_color.items())
    path = copy.invert_path(10, 12, 9)  # on a copy, so the state is left as built
    path_ok = tuple(path) == (10, 1, 4, 7, 13)
    exchanged_ok = _attempt_exchange(state, Edge(5, 6), Edge(5, 10))
    _, exchanged = k15_exchanged_table()
    table3_ok = exchanged_ok and state.edge_color == exchanged
    proper_ok = not verify_assignment(complete_graph(15), state.edge_color, 14).conflicts

    ok = table1_ok and table2_ok and classes_ok and path_ok and table3_ok and proper_ok
    report(
        5,
        ok,
        f"{detail_1}; base matches rotation classes; exchange path {tuple(path)} "
        f"reproduces the shipped table and stays proper",
    )


def test_criterion_6_kempe_properties():
    rng = random.Random(6)
    inversions = 0
    while inversions < 500:
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
            continue
        flipped = kempe_flip(coloring, v, a, b)
        assert verify_proper(graph, flipped).conflicts == ()
        assert kempe_flip(flipped, v, a, b).edge_color == coloring.edge_color
        inversions += 1

    exchanges = 0
    for n in (5, 7, 9, 11):
        for _ in range(8):
            verts = list(range(n))
            rng.shuffle(verts)
            matching = {make_edge(verts[2 * i], verts[2 * i + 1]) for i in range(n // 2)}
            target = Graph(n, set(complete_graph(n).edges()) - matching)
            state = ExchangeState(target)
            size = len(state.edge_color)
            while state.missing:
                t = min(state.missing)
                for r in sorted(state.extra):
                    if _attempt_exchange(state, r, t):
                        break
                else:
                    break
                assert len(state.edge_color) == size
                seen_at = [set() for _ in range(n)]
                for e, c in state.edge_color.items():
                    for x in e:
                        assert c not in seen_at[x]
                        seen_at[x].add(c)
                exchanges += 1
    report(6, True, f"{inversions} inversions (involution + proper), {exchanges} exchange steps")


def test_criterion_7_matching_transform():
    started = time.perf_counter()
    rng = random.Random(7)
    total = good = 0
    for m in range(1, 9):
        n = 2 * m + 1
        for _ in range(100):
            verts = list(range(n))
            rng.shuffle(verts)
            matching = {make_edge(verts[2 * i], verts[2 * i + 1]) for i in range(m)}
            target = Graph(n, set(complete_graph(n).edges()) - matching)
            coloring = exchange_coloring(target)
            check = verify_proper(target, coloring)
            total += 1
            good += check.valid and check.palette_size == n - 1
    elapsed = time.perf_counter() - started
    ok = good == total == 800 and elapsed < 30.0
    report(7, ok, f"{good}/{total} near-perfect matching cases, {elapsed:.2f} s")


def test_criterion_8_oracle_concordance():
    indeterminate = []
    disagreements = []
    for spec, graph, prediction, result in small_catalog_oracle():
        if result.budget_exhausted:
            indeterminate.append(spec)
            continue
        expected = max_degree(graph) + (1 if prediction.class_label == "class2" else 0)
        if result.chromatic_index != expected:
            disagreements.append(spec)

    for n in range(2, 11):
        result = exact_chromatic_index(complete_graph(n))
        expected = n - 1 if n % 2 == 0 else n
        if result.chromatic_index != expected:
            disagreements.append(f"K_{n}")

    rng = random.Random(8)
    for _ in range(40):
        n = rng.randrange(2, 11)
        graph = random_bipartite(rng, n, 0.6)
        if graph.edge_count == 0:
            continue
        result = exact_chromatic_index(graph)
        if result.budget_exhausted:
            indeterminate.append(f"bipartite n={n}")
        elif result.chromatic_index != max_degree(graph):
            disagreements.append(f"bipartite n={n}")

    ok = not indeterminate and not disagreements
    report(8, ok, f"indeterminate={indeterminate}, disagreements={disagreements}")
