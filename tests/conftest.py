"""Shared test helpers: independent brute-force oracles kept separate from the library."""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import random
from pathlib import Path

import pytest

from powerchroma import (
    DEFAULT_NODE_BUDGET,
    ColorabilityResult,
    ColorConflict,
    ColoringError,
    CoreWitness,
    EdgeColoring,
    Graph,
    Group,
    GroupTableError,
    VerificationReport,
    build_power_graph,
    complete_graph,
    construct_group,
    display_vertex,
    exact_chromatic_index,
    generate_catalog,
    load_table_text,
    make_edge,
    max_degree,
    parse_coloring_csv,
    predict_class,
)
from powerchroma.exchange import _sacrifice_candidates

DATA = Path(__file__).resolve().parent / "data"


# ---------------------------------------------------------------------------
# reference data: three coloring tables for the order-15 cyclic group's power
# graph (a hand-assembled total 14-coloring, the rotation base table of K_15
# with one near-perfect matching uncolored, and the base table after one
# documented exchange step) and a 21-element nonabelian group table


def _read(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def c15_reference_csv() -> str:
    return _read("c15_reference_14_coloring.csv")


def k15_base_csv() -> str:
    return _read("k15_rotation_base.csv")


def k15_exchanged_csv() -> str:
    return _read("k15_rotation_exchanged.csv")


def c15_reference_coloring() -> tuple[int, dict[tuple[int, int], int]]:
    """The total 14-coloring of the order-15 cyclic power graph."""
    return parse_coloring_csv(c15_reference_csv(), 15)


def k15_base_table() -> tuple[int, dict[tuple[int, int], int]]:
    """The rotation base table of K_15: 98 colored edges, one matching left out."""
    return parse_coloring_csv(k15_base_csv(), 15)


def k15_exchanged_table() -> tuple[int, dict[tuple[int, int], int]]:
    """The base table after removing one edge and adding a traded one."""
    return parse_coloring_csv(k15_exchanged_csv(), 15)


def nonabelian21_text() -> str:
    return _read("nonabelian_order21.table")


def nonabelian21_group() -> Group:
    return load_table_text(nonabelian21_text(), "table:nonabelian_order21")


# ---------------------------------------------------------------------------
# two-color walks as first written, through a neighbor lookup


def neighbor_at(coloring: EdgeColoring, v: int, color: int) -> int | None:
    """The neighbor joined to v by an edge of this color, if any, read off ``at``."""
    p = coloring.palette_size
    if not 0 <= color < p:
        return None
    w = coloring.at[v * p + color]
    return None if w < 0 else w


def walk_alternating(neighbor_at, v: int, first: int, second: int) -> tuple[list[int], bool]:
    """Follow the alternating trail from v starting along `first`.

    Returns (vertices, closed); closed means the trail returned to v, i.e. the
    two-color component through v is a cycle. Each vertex has at most one edge
    per color, so the walk is forced.
    """
    seq = [v]
    cur, col = v, first
    while True:
        nxt = neighbor_at(cur, col)
        if nxt is None:
            return seq, False
        if nxt == v:
            return seq, True
        seq.append(nxt)
        cur = nxt
        col = second if col == first else first


def swap_path_colors(coloring: EdgeColoring, vertices, a: int, b: int) -> None:
    """In-place a <-> b swap along consecutive colored edges of a path.

    Low level: callers must pass a maximal alternating path (or a full
    cycle with the first vertex repeated); properness is preserved then.
    """
    if len(vertices) < 2:
        return
    edges = [make_edge(x, y) for x, y in zip(vertices, vertices[1:])]
    olds = []
    for e in edges:
        color = coloring.edge_color[e]
        if color not in (a, b):
            raise ColoringError(f"edge {tuple(e)} carries color {color}, not {a} or {b}")
        olds.append(color)
    p = coloring.palette_size
    at = coloring.at
    for (u, v), c in zip(edges, olds):
        at[u * p + c] = -1
        at[v * p + c] = -1
    for e, c in zip(edges, olds):
        new = b if c == a else a
        coloring.edge_color[e] = new
        at[e[0] * p + new] = e[1]
        at[e[1] * p + new] = e[0]


def brute_is_power(group: Group, a: int, b: int) -> bool:
    """a == b^k for some k >= 0, by explicit repeated multiplication."""
    x = 0
    for _ in range(group.order + 1):
        if x == a:
            return True
        x = group.table[x][b]
    return False


def brute_power_graph_edges(group: Group) -> set:
    """Power-graph edge set computed directly from the multiplication table."""
    n = group.order
    return {
        make_edge(a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if brute_is_power(group, a, b) or brute_is_power(group, b, a)
    }


def brute_row(graph: Graph, u: int) -> list[int]:
    """The neighbours of u in increasing order, one bit test per vertex."""
    return [v for v in range(graph.n) if graph.bits[u] >> v & 1]


def reference_build_power_graph(group: Group) -> Graph:
    """``build_power_graph`` as first written: every element's powers walked.

    The library walks each distinct cyclic subgroup once instead.
    """
    n = group.order
    bits = [0] * n
    for b in range(n):
        bit_b = 1 << b
        mask = 0
        for a in group.powers_of(b):
            bits[a] |= bit_b
            mask |= 1 << a
        bits[b] |= mask
    for v in range(n):
        bits[v] &= ~(1 << v)  # every element is among its own powers
    graph = Graph.__new__(Graph)
    graph._adopt_bits(bits, group.element_names)
    return graph


def reference_closures(group: Group) -> tuple[tuple[int, ...], tuple[frozenset, ...]]:
    """(element orders, cyclic subgroups) as first computed: every element's powers walked.

    The library walks one generator per cyclic subgroup and reads the
    subgroups inside it off that walk.
    """
    rows = group.table
    orders = []
    powers = []
    for g in range(group.order):
        closure = {0}
        x = g
        k = 1
        while x != 0:
            closure.add(x)
            x = rows[x][g]
            k += 1
        orders.append(k)
        powers.append(frozenset(closure))
    return tuple(orders), tuple(powers)


def reference_core_class1_check(graph: Graph) -> CoreWitness | None:
    """The core check as first written: build the induced core subgraph, then search it for a cycle.

    The library reads the core off the bitmasks and compares its edge count
    with k - components instead.
    """
    if graph.n < 1:
        return None
    top = max_degree(graph)
    parents = tuple(sorted(v for v in range(graph.n) if graph.degree(v) == top))
    back = {p: i for i, p in enumerate(parents)}
    edges = [
        (back[u], back[v])
        for u in parents
        for v in brute_row(graph, u)
        if v in back and u < v
    ]
    core = Graph(len(parents), edges)
    if core.n <= 2:
        noun = "vertex" if core.n == 1 else "vertices"
        return CoreWitness("core-small", core.n, f"core has {core.n} {noun}")
    if not _reference_has_cycle(core):
        return CoreWitness("core-acyclic", core.n, f"core is acyclic ({core.n} vertices)")
    return None


def _reference_has_cycle(graph: Graph) -> bool:
    seen = [False] * graph.n
    for root in range(graph.n):
        if seen[root]:
            continue
        stack = [(root, -1)]
        seen[root] = True
        while stack:
            v, parent = stack.pop()
            for w in brute_row(graph, v):
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, v))
                elif w != parent:
                    return True
    return False


@functools.cache
def catalog_groups_to_120() -> tuple[Group, ...]:
    """Every catalog group up to order 120 and the order-21 fixture, built once per session."""
    return tuple(construct_group(spec) for spec in generate_catalog(120)) + (nonabelian21_group(),)


def reference_validate_table(table) -> None:
    """The group axioms checked directly, associativity over all n^3 triples.

    Same checks, order and message keywords as ``validate_table``; the library
    checks associativity with Light's test on a generating set instead.
    """
    n = len(table)
    if n == 0:
        raise GroupTableError("empty multiplication table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise GroupTableError(f"row {i} has length {len(row)}, expected {n}")
        for x in row:
            if not isinstance(x, int) or not 0 <= x < n:
                raise GroupTableError(f"entry {x!r} in row {i} out of range 0..{n - 1}")
        if len(set(row)) != n:
            raise GroupTableError(f"row {i} is not a permutation (Latin square violated)")
    for j in range(n):
        if len({table[i][j] for i in range(n)}) != n:
            raise GroupTableError(f"column {j} is not a permutation (Latin square violated)")
    for j in range(n):
        if table[0][j] != j:
            raise GroupTableError("element 0 is not a left identity")
        if table[j][0] != j:
            raise GroupTableError("element 0 is not a right identity")
    for a in range(n):
        row_a = table[a]
        for b in range(n):
            row_b = table[b]
            if [row_a[x] for x in row_b] != list(table[row_a[b]]):
                raise GroupTableError(f"associativity fails at a={a}, b={b}")
    for a in range(n):
        b = table[a].index(0)
        if table[b][a] != 0:
            raise GroupTableError(f"element {a} has no two-sided inverse")


def reference_attempt_exchange(state, remove, add) -> bool:
    """One exchange attempt as first written: remove, then walk every color pair both ways.

    Walks and swaps with the helpers above; the library plans the same
    attempt on its flat table, skips the mirror walk from u and inverts the
    path with ``invert_path``.
    """
    lookup = functools.partial(neighbor_at, state)
    state.stats["attempts"] += 1
    x = state.remove_edge(remove)
    u, v = add
    missing_u = state.missing_at(u)
    missing_v = state.missing_at(v)
    shared = missing_u & missing_v
    if shared:
        state.add_edge(add, min(shared))
        state.stats["direct"] += 1
        state.stats["exchanges"] += 1
        return True
    for alpha in sorted(missing_u):
        for beta in sorted(missing_v):
            verts, closed = walk_alternating(lookup, v, alpha, beta)
            if not closed and verts[-1] != u:
                swap_path_colors(state, verts, alpha, beta)
                state.stats["inversions"] += 1
                state.add_edge(add, alpha)
                state.stats["exchanges"] += 1
                return True
            verts, closed = walk_alternating(lookup, u, beta, alpha)
            if not closed and verts[-1] != v:
                swap_path_colors(state, verts, beta, alpha)
                state.stats["inversions"] += 1
                state.add_edge(add, beta)
                state.stats["exchanges"] += 1
                return True
    state.add_edge(remove, x)
    return False


def reference_try_add(state, t, depth, limits) -> bool:
    """The drain step with every extra edge walked in sorted order; no skipping.

    ``stats["unsettled"]`` tallies the attempts the skip lemma cannot settle,
    judged on the state before each one: the extra edge touches an endpoint
    of t or its color is missing at one. Every sacrifice attempt counts.
    """
    stats = state.stats
    stats["chain_calls"] += 1
    if not limits.spend():
        return False
    u, v = t
    for r in sorted(state.extra):
        if u in r or v in r or state.edge_color[r] in state.missing_at(u) | state.missing_at(v):
            stats["unsettled"] += 1
        if reference_attempt_exchange(state, r, t):
            return True
    if depth <= 0:
        return False
    for r in _sacrifice_candidates(state, t, limits):
        stats["unsettled"] += 1
        snap = state.snapshot()
        if not reference_attempt_exchange(state, r, t):
            continue
        limits.banned.add(t)
        ok = reference_try_add(state, r, depth - 1, limits)
        limits.banned.discard(t)
        if ok:
            return True
        state.restore(snap)
    return False


def reference_drain(state, depth, limits) -> bool:
    """``exchange._drain`` over ``reference_try_add``."""
    state.stats["unsettled"] = 0
    while state.missing:
        for t in sorted(state.missing):
            if reference_try_add(state, t, depth, limits):
                break
        else:
            return False
    return True


def reference_graph_to_json(graph: Graph) -> str:
    """The graph writer as first written, through ``json.dumps(indent=2)``."""
    edges = sorted(make_edge(u, v) for u in range(graph.n) for v in brute_row(graph, u) if u < v)
    payload = {"n": graph.n, "edges": [[u, v] for u, v in edges], "labels": list(graph.labels)}
    return json.dumps(payload, indent=2, sort_keys=True)


def reference_coloring_to_csv(coloring) -> str:
    """The CSV writer as first written: each edge's display labels sorted as a pair."""
    n = coloring.graph.n
    columns = [[] for _ in range(coloring.palette_size)]
    by_color = {}
    for e, c in coloring.items():
        pair = tuple(sorted((display_vertex(e[0], n), display_vertex(e[1], n))))
        by_color.setdefault(c, []).append(pair)
    for c, pairs in by_color.items():
        columns[c] = [f"({u}, {v})" for u, v in sorted(pairs)]
    height = max((len(col) for col in columns), default=0)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([str(c + 1) for c in range(coloring.palette_size)])
    for r in range(height):
        writer.writerow([col[r] if r < len(col) else "" for col in columns])
    return buf.getvalue()


def reference_coloring_to_json(coloring) -> str:
    """The coloring writer as first written, through ``json.dumps(indent=2)``."""
    payload = {
        "n": coloring.graph.n,
        "palette": coloring.palette_size,
        "edges": [{"u": e[0], "v": e[1], "color": c + 1} for e, c in sorted(coloring.items())],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def reference_graph_from_json(text: str) -> Graph:
    """The graph reader as first written: shape checks, then ``Graph(n, edges)``."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise ValueError('graph JSON must be an object with "n" and "edges" keys')
    n, edges, labels = payload["n"], payload["edges"], payload.get("labels")
    if type(n) is not int:
        raise ValueError(f'graph JSON "n" must be an integer, got {n!r}')
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e) for e in edges
    ):
        raise ValueError('graph JSON "edges" must be a list of [u, v] integer pairs')
    if labels is not None and not (
        isinstance(labels, list) and all(type(s) is str for s in labels)
    ):
        raise ValueError('graph JSON "labels" must be a list of strings')
    graph = Graph(n, [tuple(e) for e in edges], labels)
    if graph.edge_count != len(edges):
        raise ValueError("graph JSON lists an edge twice")
    return graph


def reference_report_dict(report, include_timing: bool = False) -> dict:
    """``ClassReport.to_dict`` as first written: every field of the three records by hand."""
    w, o = report.witness, report.oracle
    out = {
        "spec": report.spec,
        "order": report.order,
        "is_cyclic": report.is_cyclic,
        "odd": report.odd,
        "prime_power": report.prime_power,
        "edge_count": report.edge_count,
        "max_degree": report.max_degree,
        "deficiency": report.deficiency,
        "budget": report.budget,
        "overfull": report.overfull,
        "predicted_class": report.predicted_class,
        "reason": report.reason,
        "core_condition": report.core_condition,
        "witness": {
            "colors_used": w.colors_used,
            "verified": w.verified,
            "strategy": w.strategy,
            "class_label": w.class_label,
            "stats": w.stats,
        } if w else None,
        "oracle": {
            "chromatic_index": o.chromatic_index,
            "nodes_explored": o.nodes_explored,
            "budget_exhausted": o.budget_exhausted,
            "agrees": o.agrees,
        } if o else None,
    }
    if include_timing:
        out["elapsed_ms"] = round(report.elapsed_ms, 3)
    return out


def reference_verify_assignment(graph: Graph, mapping: dict, palette_size: int):
    """The verifier as first written: normalize, dedupe, check, rebuild the edge set."""
    conflicts, foreign, out_of_palette = [], [], []
    first_at, normalized = {}, {}
    entries = sorted(((make_edge(*k), c) for k, c in mapping.items()), key=lambda kc: kc[0])
    for e, color in entries:
        if e in normalized:
            conflicts.append(ColorConflict(e[0], color, e, e))
        else:
            normalized[e] = color
    for e, color in normalized.items():
        if not (0 <= e[0] < graph.n and 0 <= e[1] < graph.n) or not graph.bits[e[0]] >> e[1] & 1:
            foreign.append(e)
            continue
        if not 0 <= color < palette_size:
            out_of_palette.append((e, color))
        for x in e:
            prev = first_at.get((x, color))
            if prev is None:
                first_at[(x, color)] = e
            else:
                conflicts.append(ColorConflict(x, color, prev, e))
    foreign_set = set(foreign)
    colored = {e for e in normalized if e not in foreign_set}
    every = {make_edge(u, v) for u in range(graph.n) for v in brute_row(graph, u)}
    return VerificationReport(
        n=graph.n,
        palette_size=palette_size,
        colored_count=len(colored),
        distinct_colors=len({normalized[e] for e in colored}) if colored else 0,
        conflicts=tuple(conflicts),
        uncolored=tuple(sorted(every - colored)),
        foreign_edges=tuple(foreign),
        out_of_palette=tuple(out_of_palette),
    )


def reference_assign(coloring: EdgeColoring, a: int, b: int, color: int) -> None:
    """``EdgeColoring.assign`` as first written, one edge at a time on the raw fields."""
    e = make_edge(a, b)
    u, v = e
    graph = coloring.graph
    if u < 0 or v >= graph.n or not graph.bits[u] >> v & 1:
        raise ColoringError(f"edge {tuple(e)} is not in the graph")
    p = coloring.palette_size
    if not 0 <= color < p:
        raise ColoringError(f"color {color} outside palette 0..{p - 1}")
    if e in coloring.edge_color:
        raise ColoringError(f"edge {tuple(e)} already colored")
    at = coloring.at
    iu, iv = u * p + color, v * p + color
    if at[iu] >= 0 or at[iv] >= 0:
        x = u if at[iu] >= 0 else v
        raise ColoringError(
            f"color {color} already present at vertex {x} "
            f"on edge {tuple(make_edge(x, at[x * p + color]))}"
        )
    coloring.edge_color[e] = color
    at[iu] = v
    at[iv] = u


def reference_round_robin(n: int) -> EdgeColoring:
    """The K_n round robin (n even) as first written: the circle-method loop."""
    coloring = EdgeColoring(complete_graph(n), n - 1)
    mod = n - 1
    for r in range(n - 1):
        reference_assign(coloring, n - 1, r, r)
        for i in range(1, n // 2):
            reference_assign(coloring, (r + i) % mod, (r - i) % mod, r)
    return coloring


def reference_rotation_classes(n: int) -> list:
    """The rotation classes of K_n (n odd) as first written: class p-1 from (p-q, p+q) mod n."""
    classes = []
    for p in range(1, n + 1):
        cls = [make_edge((p - q) % n, (p + q) % n) for q in range(1, (n - 1) // 2 + 1)]
        classes.append(sorted(cls))
    return classes


def reference_dihedral_table(n: int) -> list:
    """The dihedral table of order 2n as first written, cell by cell."""

    def idx(i: int, j: int) -> int:
        return i + n * j

    table = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(2):
            for k in range(n):
                for ell in range(2):
                    rot = (i + k) % n if j == 0 else (i - k) % n
                    table[idx(i, j)][idx(k, ell)] = idx(rot, (j + ell) % 2)
    return table


def reference_quaternion_table(m: int) -> list:
    """The generalized quaternion table of order 4m as first written, cell by cell."""
    two_m = 2 * m

    def idx(i: int, j: int) -> int:
        return i + two_m * j

    table = [[0] * (4 * m) for _ in range(4 * m)]
    for i in range(two_m):
        for j in range(2):
            for k in range(two_m):
                for ell in range(2):
                    if j == 0:
                        table[idx(i, j)][idx(k, ell)] = idx((i + k) % two_m, ell)
                    elif ell == 0:
                        table[idx(i, j)][idx(k, ell)] = idx((i - k) % two_m, 1)
                    else:
                        table[idx(i, j)][idx(k, ell)] = idx((i - k + m) % two_m, 0)
    return table


def reference_is_k_edge_colorable(
    graph: Graph, k: int, budget: int = DEFAULT_NODE_BUDGET
) -> ColorabilityResult:
    """``is_k_edge_colorable`` as first written, in descending degree-sum order.

    The pivot's pins live in an edge-keyed dict. The library searches the
    edges in another order, so the two agree on each decision they reach
    within the budget, not on the nodes they visit.
    """
    if k < 0:
        raise ValueError(f"color count must be >= 0, got {k}")
    if graph.edge_count == 0:
        return ColorabilityResult("yes", EdgeColoring(graph, k), 0)
    if max_degree(graph) > k:
        return ColorabilityResult("no", None, 0)
    if graph.edge_count > k * (graph.n // 2):
        return ColorabilityResult("no", None, 0)

    degrees = [graph.degree(v) for v in range(graph.n)]
    order = sorted(graph.edges(), key=lambda e: (-(degrees[e[0]] + degrees[e[1]]), e))
    top = max(degrees)
    pivot = min(v for v in range(graph.n) if degrees[v] == top)
    forced: dict = {}
    for e in order:
        if pivot in e:
            forced[e] = len(forced)

    full = (1 << k) - 1
    used = [0] * graph.n
    m = len(order)
    choice = [-1] * m
    nodes = 0
    i = 0
    while True:
        e = order[i]
        u, v = e
        start = choice[i] + 1
        if e in forced:
            c = forced[e]
            picked = c if c >= start and not ((used[u] | used[v]) >> c & 1) else -1
        else:
            avail = ~(used[u] | used[v]) & full & ~((1 << start) - 1)
            picked = (avail & -avail).bit_length() - 1 if avail else -1
        nodes += 1
        if nodes > budget:
            return ColorabilityResult("indeterminate", None, nodes)
        if picked < 0:
            choice[i] = -1
            i -= 1
            if i < 0:
                return ColorabilityResult("no", None, nodes)
            prev = order[i]
            bit = 1 << choice[i]
            used[prev[0]] &= ~bit
            used[prev[1]] &= ~bit
            continue
        choice[i] = picked
        bit = 1 << picked
        used[u] |= bit
        used[v] |= bit
        i += 1
        if i == m:
            return ColorabilityResult("yes", EdgeColoring(graph, k, zip(order, choice)), nodes)


@functools.cache
def small_catalog_oracle() -> tuple:
    """(spec, graph, prediction, exact result) for every group of order <= 12.

    The exact searches run once per session for the tests that read them.
    Each colors on its first descent, so ``cyclic:12`` takes 56 nodes, one
    per edge.
    """
    out = []
    for spec in generate_catalog(12):
        group = construct_group(spec)
        graph = build_power_graph(group)
        out.append((spec, graph, predict_class(group), exact_chromatic_index(graph)))
    return tuple(out)


def brute_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def kempe_flip(coloring: EdgeColoring, v: int, a: int, b: int) -> EdgeColoring:
    """A copy of ``coloring`` with a and b swapped along the a/b path from v.

    v must miss a or b, so it ends its two-color component: the drain's step,
    ``invert_path`` from v along the color it has.
    """
    out = EdgeColoring(coloring.graph, coloring.palette_size, coloring.edge_color.items())
    if neighbor_at(coloring, v, a) is None:
        out.invert_path(v, b, a)
    else:
        out.invert_path(v, a, b)
    return out


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_bipartite(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    left = rng.randrange(1, n)
    edges = [(u, v) for u in range(left) for v in range(left, n) if rng.random() < p]
    return Graph(n, edges)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
