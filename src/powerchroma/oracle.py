"""Exact small-instance ground truth for edge colorings.

``is_k_edge_colorable`` runs a budgeted backtracking search over the edges in
one fixed order, the order in which a greedy first descent colors them: most
constrained first, as in Brelaz's DSATUR (CACM 22, 1979), applied to edges.
When that descent colors every edge, the search replays it without
backtracking, one node per edge; any fixed order keeps the search exhaustive.
Colors are interchangeable, so every edge at one chosen maximum-degree vertex
is pinned to a fixed color up front, removing the k! relabeling factor. The
pins live in one per-position mask of allowed colors (one bit for a pinned
edge, all k for any other), so one expression picks every color. Two shortcuts
answer before any search: "yes" whenever k > max_degree, with the
Misra-Gries witness (Vizing's theorem), and "no" whenever
edge_count > k * floor(n/2), since no color class can exceed floor(n/2)
edges.

``exact_chromatic_index`` only ever tests k = max_degree: by the
Vizing-Gupta bound any graph needs either max_degree or max_degree + 1
colors, and a (max_degree + 1)-witness always exists, produced here by the
Misra-Gries fan-rotation construction, its fans read off the coloring's table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .coloring import EdgeColoring
from .powergraph import Graph, max_degree

__all__ = [
    "ColorabilityResult",
    "DEFAULT_NODE_BUDGET",
    "OracleResult",
    "exact_chromatic_index",
    "is_k_edge_colorable",
    "misra_gries_coloring",
]

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class ColorabilityResult:
    status: str  # "yes" | "no" | "indeterminate"
    witness: EdgeColoring | None
    nodes_explored: int


@dataclass(frozen=True)
class OracleResult:
    chromatic_index: int | None
    witness: EdgeColoring | None
    nodes_explored: int

    @property
    def budget_exhausted(self) -> bool:
        return self.chromatic_index is None


def is_k_edge_colorable(
    graph: Graph, k: int, budget: int = DEFAULT_NODE_BUDGET
) -> ColorabilityResult:
    if k < 0:
        raise ValueError(f"color count must be >= 0, got {k}")
    if graph.edge_count == 0:
        return ColorabilityResult("yes", EdgeColoring(graph, k), 0)
    delta = max_degree(graph)
    if delta > k:
        return ColorabilityResult("no", None, 0)
    if delta < k:
        # Vizing: max_degree + 1 colors always suffice
        witness = misra_gries_coloring(graph).edge_color.items()
        return ColorabilityResult("yes", EdgeColoring(graph, k, witness), 0)
    if graph.edge_count > k * (graph.n // 2):
        return ColorabilityResult("no", None, 0)

    degrees = [graph.degree(v) for v in range(graph.n)]
    top = max(degrees)
    pivot = min(v for v in range(graph.n) if degrees[v] == top)
    order = _descent_order(graph, k, degrees, pivot)
    # the colors each position may take: the pivot's edges, in search order,
    # are pinned to colors 0, 1, 2, ...; every other edge may take any of k
    full = (1 << k) - 1
    pins = count()
    allowed = [1 << next(pins) if pivot in e else full for e in order]

    used = [0] * graph.n
    m = len(order)
    choice = [-1] * m
    nodes = 0
    i = 0
    while True:
        u, v = order[i]
        avail = ~(used[u] | used[v]) & allowed[i] & ~((1 << (choice[i] + 1)) - 1)
        picked = (avail & -avail).bit_length() - 1 if avail else -1
        nodes += 1
        if nodes > budget:
            return ColorabilityResult("indeterminate", None, nodes)
        if picked < 0:
            choice[i] = -1
            i -= 1
            if i < 0:
                return ColorabilityResult("no", None, nodes)
            a, b = order[i]
            bit = 1 << choice[i]
            used[a] &= ~bit
            used[b] &= ~bit
            continue
        choice[i] = picked
        bit = 1 << picked
        used[u] |= bit
        used[v] |= bit
        i += 1
        if i == m:
            return ColorabilityResult("yes", EdgeColoring(graph, k, zip(order, choice)), nodes)


def _descent_order(graph: Graph, k: int, degrees: list[int], pivot: int) -> list[tuple[int, int]]:
    """The edges in the order a greedy first descent colors them, most constrained first.

    The pivot's edges come first and take colors 0, 1, 2, ...; then the edge
    with the fewest colors open at both ends takes its least open color. Ties
    go to the larger degree sum, then the smaller edge. An edge with no open
    color joins the order uncolored. Each step scans every edge left, so the
    pass costs O(m^2).
    """
    full = (1 << k) - 1
    used = [0] * graph.n  # the colors at each vertex
    order = []
    rest = []
    for e in sorted(graph.edges(), key=lambda e: (-(degrees[e[0]] + degrees[e[1]]), e)):
        if pivot in e:
            bit = 1 << len(order)
            used[e[0]] |= bit
            used[e[1]] |= bit
            order.append(e)
        else:
            rest.append(e)

    def constraint(e: tuple[int, int]) -> tuple:
        u, v = e
        return (full & ~(used[u] | used[v])).bit_count(), -(degrees[u] + degrees[v]), e

    while rest:
        e = min(rest, key=constraint)
        rest.remove(e)
        u, v = e
        free = full & ~(used[u] | used[v])
        bit = free & -free
        used[u] |= bit
        used[v] |= bit
        order.append(e)
    return order


def exact_chromatic_index(graph: Graph, budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    delta = max_degree(graph)
    if graph.edge_count == 0:
        return OracleResult(0, EdgeColoring(graph, 0), 0)
    result = is_k_edge_colorable(graph, delta, budget)
    if result.status == "yes":
        return OracleResult(delta, result.witness, result.nodes_explored)
    if result.status == "no":
        return OracleResult(delta + 1, misra_gries_coloring(graph), result.nodes_explored)
    return OracleResult(None, None, result.nodes_explored)


def misra_gries_coloring(graph: Graph) -> EdgeColoring:
    """Proper edge coloring with at most max_degree + 1 colors via fan rotations."""
    delta = max_degree(graph)
    coloring = EdgeColoring(graph, delta + 1 if graph.edge_count else 0)
    for u, v in graph.edges():
        _mg_color_edge(coloring, u, v)
    return coloring


def _mg_color_edge(coloring: EdgeColoring, u: int, v: int) -> None:
    at, p = coloring.at, coloring.palette_size
    base = u * p
    # maximal fan of u starting at v: each next edge's color is free at the
    # previous fan vertex; the least such neighbor comes next
    fan = [v]
    while True:
        free = coloring.missing_at(fan[-1])
        ends = [w for c in free if (w := at[base + c]) >= 0 and w not in fan]
        if not ends:
            break
        fan.append(min(ends))

    c = coloring.missing_at(u)[0]
    d = coloring.missing_at(fan[-1])[0]
    if d not in coloring.missing_at(u):
        # flip the maximal c/d path out of u so that d becomes free at u
        coloring.invert_path(u, d, c)  # u misses c

    # Rotate the fan prefix that ends at the first vertex where d is now free:
    # it is still a fan. With no flip the fan is as built. Otherwise u's d edge
    # leads to some fan[j + 1] (fan[-1] misses d and the fan is maximal), so
    # fan[j] missed d. The flip swaps c and d on its path only, and
    # (u, fan[j + 1]) is the one fan edge colored c or d, as u misses c; so
    # fan[: j + 1] stays a fan. If the path does not end at fan[j], fan[j]
    # still misses d, and the first such vertex comes no later. If it does,
    # fan[j] now misses c, the new color of (u, fan[j + 1]), so the whole fan
    # stays one, and fan[-1], off the path, still misses d.
    end = next(i for i, w in enumerate(fan) if at[w * p + d] < 0)
    prefix = fan[: end + 1]
    shifted = [coloring.color_of(u, x) for x in prefix[1:]]
    for x in prefix[1:]:
        coloring.unassign(u, x)
    for x, color in zip(prefix, shifted):
        coloring.assign(u, x, color)
    coloring.assign(u, prefix[-1], d)
