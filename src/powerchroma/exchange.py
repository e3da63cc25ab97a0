"""Edge-exchange engine, built on Kempe path inversion, and the coloring dispatcher.

``exchange_coloring`` turns the rotation base coloring of K_n (odd n, n-1
colors, one near-perfect matching left out) into a total (n-1)-coloring of a
target subgraph with a full-degree vertex. Edges the base colors but the
target lacks are traded one-for-one against target edges the base misses;
each trade is realized by at most one Kempe path inversion
(``EdgeColoring.invert_path``). The working graph
keeps a constant number of colored edges, so every color class stays a
near-perfect matching throughout; the final coloring leaves the surplus out.

The trades run as one drain: each missing target edge is brought in by a
depth-1 Kempe exchange against some extra edge or, failing that, by a
sacrifice chain that temporarily removes up to ``CHAIN_DEPTH`` target edges,
all under a budget of ``NODE_BUDGET`` chain calls. The state works on the
same ``EdgeColoring`` table as every other coloring. When the drain fails,
``ExchangeFailure`` carries diagnostics and proves nothing about the
target's chromatic index; ``color_graph`` then falls back to exact
search, as it does for every graph with no full-degree vertex.

An attempt to trade a colored edge r (color x) for an absent edge t = (u, v)
removes r and then looks for a color missing at both u and v, or for a pair
(alpha, beta), alpha missing at u and beta at v, whose alternating path from
v does not end at u; inverting that path frees alpha at v. The drain skips
the extra edges whose attempt must fail. The base colors (n-1)^2/2 edges in n-1
colors and every trade is one-for-one, so throughout the drain each color
class is a near-perfect matching and each color is missing at exactly one
vertex. Hence u and v share no missing color, and the alpha/beta path from v
ends at u: t can never be added with no removal. If r touches neither u nor v
and x is missing at neither, removing r leaves the missing colors at u and v
as they were, and every walk uses only colors from those sets, never x, so
each walk is the same with or without r and the attempt fails. The drain
therefore attempts only the extra edges at u or v and those whose color is
missing at u or v, in sorted order, and ``stats["attempts"]`` counts the
attempts it makes.

After a failed walk from v, the engine does not walk from u along beta: v
misses beta and u misses alpha, so each ends its alpha/beta path, and when
the path from v ends at u, the path from u ends at v and fails too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import oracle
from .coloring import EdgeColoring, _round_robin_pairs, _rotation_pairs
from .groups import Group
from .overfull import OverfullReport, deficiency_report, is_overfull
from .powergraph import Graph, _row, build_power_graph, complete_graph, max_degree

__all__ = [
    "ExchangeFailure",
    "ExchangeState",
    "GroupColoring",
    "color_graph",
    "color_power_graph",
    "exchange_coloring",
]

# Sacrifice-chain depth and chain-call budget of the drain.
CHAIN_DEPTH = 3
NODE_BUDGET = 200_000


class ExchangeFailure(RuntimeError):
    """The exchange drain got stuck or spent its budget; carries diagnostics."""

    def __init__(self, remaining_extra, remaining_missing, stats):
        self.remaining_extra = tuple(remaining_extra)
        self.remaining_missing = tuple(remaining_missing)
        self.stats = dict(stats)
        super().__init__(
            f"exchange schedule exhausted: {len(self.remaining_extra)} extra and "
            f"{len(self.remaining_missing)} missing edges left"
        )


class ExchangeState(EdgeColoring):
    """The working coloring: an ``EdgeColoring`` of K_n over a shifting edge set.

    ``extra`` holds colored edges absent from the target; ``missing`` holds
    target edges not currently colored. Inversions and exchanges keep the
    coloring proper; |extra| - |missing| is invariant.

    The state starts from the rotation base (``_rotation_pairs`` of K_n less
    the class n-1): color c joins u to (2c + 2 - u) mod n and misses vertex
    c + 1, and the class left out is the pairs with u + v = n. The base is
    written straight into the table with no per-edge checks; the finished
    coloring is refilled through the checked fill, and its callers verify it.
    """

    __slots__ = ("target", "extra", "missing", "stats")

    def __init__(self, target: Graph):
        n = target.n
        if n < 3 or n % 2 == 0:
            raise ValueError(f"exchange transform needs odd order >= 3, got n={n}")
        p = n - 1
        super().__init__(complete_graph(n), p)
        # row u lists (2c + 2 - u) mod n for c = 0..p-1: a slice of the doubles
        # 2i mod n, shifted by u / 2 = u * half mod n
        half = (n + 1) // 2
        doubles = [2 * i % n for i in range(n)] * 2
        at = []
        for u in range(n):
            start = (1 - u * half) % n
            at += doubles[start:start + p]
        for u in range(1, n):
            at[u * p + u - 1] = -1  # color u - 1 misses u
        self.at = at
        # sorted, as a fill of ``_rotation_pairs`` would leave it
        self.edge_color = {
            (u, v): c
            for u in range(n)
            for v in range(u + 1, n)
            if (c := ((u + v) * half - 1) % n) < p
        }
        self.target = target
        bits, full = target.bits, (1 << n) - 1
        # the base colors every pair but those with u + v = n
        self.extra = {(u, v) for u in range(n) for v in _row(full ^ bits[u], u + 1) if u + v != n}
        self.missing = {(u, n - u) for u in range(1, half) if bits[u] >> (n - u) & 1}
        self.stats = {
            "attempts": 0,
            "exchanges": 0,
            "direct": 0,
            "inversions": 0,
            "chain_calls": 0,
            "restores": 0,
        }

    def remove_edge(self, e: tuple[int, int]) -> int:
        u, v = e
        color = self.unassign(u, v)
        if self.target.bits[u] >> v & 1:
            self.missing.add(e)
        else:
            self.extra.remove(e)
        return color

    def add_edge(self, e: tuple[int, int], color: int) -> None:
        u, v = e
        self.assign(u, v, color)
        if self.target.bits[u] >> v & 1:
            self.missing.discard(e)
        else:
            self.extra.add(e)

    def snapshot(self):
        return (
            dict(self.edge_color),
            list(self.at),
            set(self.extra),
            set(self.missing),
        )

    def restore(self, snap) -> None:
        edge_color, at, extra, missing = snap
        self.edge_color = dict(edge_color)
        self.at = list(at)
        self.extra = set(extra)
        self.missing = set(missing)
        self.stats["restores"] += 1


def _missing(at: list[int], base: int, palette: int) -> list[int]:
    """Colors missing at the vertex whose table row starts at ``base``, ascending."""
    row = at[base:base + palette]
    out = []
    c = -1
    for _ in range(row.count(-1)):
        c = row.index(-1, c + 1)
        out.append(c)
    return out


def _plan(state: ExchangeState, add: tuple[int, int]) -> tuple[int, int] | None:
    """How the absent edge ``add`` = (u, v) can be colored in the current table.

    Returns (c, -1) when u and v share a missing color (c the least), and
    (alpha, beta) when inverting the alpha/beta path from v frees alpha at v
    (the first such pair in sorted order); None when neither exists.
    """
    at, p = state.at, state.palette_size
    u, v = add
    missing_u = _missing(at, u * p, p)
    missing_v = _missing(at, v * p, p)
    shared = set(missing_u).intersection(missing_v)
    if shared:
        return min(shared), -1
    # the walk is inlined and read-only, since it runs on every attempt; on
    # success ``_attempt_exchange`` inverts the path with ``invert_path``
    for alpha in missing_u:
        for beta in missing_v:
            # v has alpha and misses beta, so this walk runs to the path's far end
            cur = v
            while True:
                nxt = at[cur * p + alpha]
                if nxt < 0:
                    break
                cur = at[nxt * p + beta]
                if cur < 0:
                    cur = nxt
                    break
            if cur != u:
                return alpha, beta
    return None


def _attempt_exchange(state: ExchangeState, remove: tuple[int, int], add: tuple[int, int]) -> bool:
    """Trade one colored edge for one absent edge; at most one Kempe inversion.

    On success the state is updated; on failure it is left exactly as found.
    """
    state.stats["attempts"] += 1
    at, p = state.at, state.palette_size
    x = state.edge_color[remove]
    a, b = remove
    # plan with ``remove`` lifted out of the table; put it back when there is no plan
    at[a * p + x] = -1
    at[b * p + x] = -1
    plan = _plan(state, add)
    if plan is None:
        at[a * p + x] = b
        at[b * p + x] = a
        return False
    state.remove_edge(remove)
    color, beta = plan
    if beta < 0:
        state.stats["direct"] += 1
    else:
        state.invert_path(add[1], color, beta)  # v misses beta
        state.stats["inversions"] += 1
    state.add_edge(add, color)
    state.stats["exchanges"] += 1
    return True


@dataclass
class _Limits:
    node_budget: int
    nodes: int = 0
    banned: set = field(default_factory=set)

    def spend(self) -> bool:
        self.nodes += 1
        return self.nodes <= self.node_budget


def _sacrifice_candidates(
    state: ExchangeState, t: tuple[int, int], limits: _Limits
) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    seen = set()
    p = state.palette_size
    for w in t:
        for x in state.at[w * p:(w + 1) * p]:
            if x < 0:
                continue
            e = (w, x) if w < x else (x, w)
            if e == t or e in seen or e in state.extra or e in limits.banned:
                continue
            seen.add(e)
            out.append(e)
    return out


def _relevant(state: ExchangeState, t: tuple[int, int]) -> list[tuple[int, int]]:
    """The extra edges the lemma cannot settle for t, sorted.

    These are the extra edges at an endpoint of t and those whose color is
    missing at an endpoint; removing any other extra edge changes no walk.
    """
    at, p, extra = state.at, state.palette_size, state.extra
    out = set()
    for w in t:
        base = w * p
        for x in at[base:base + p]:
            if x > w:
                if (w, x) in extra:
                    out.add((w, x))
            elif x >= 0 and (x, w) in extra:
                out.add((x, w))
        for c in _missing(at, base, p):
            # the color class c as a partner list: vertex y is joined to x
            for y, x in enumerate(at[c::p]):
                if x > y and (y, x) in extra:
                    out.add((y, x))
    return sorted(out)


def _try_add(state: ExchangeState, t: tuple[int, int], depth: int, limits: _Limits) -> bool:
    """Bring target edge t into the working graph, sacrificing up to `depth` edges.

    Only the ``_relevant`` extra edges are tried, in sorted order. The drain
    keeps every color class a near-perfect matching, so t cannot be added
    with no removal, and by the lemma in the module docstring every other
    extra edge fails.
    """
    state.stats["chain_calls"] += 1
    if not limits.spend():
        return False
    for r in _relevant(state, t):
        if _attempt_exchange(state, r, t):
            return True
    if depth <= 0:
        return False
    for r in _sacrifice_candidates(state, t, limits):
        snap = state.snapshot()
        if not _attempt_exchange(state, r, t):
            continue
        limits.banned.add(t)
        ok = _try_add(state, r, depth - 1, limits)
        limits.banned.discard(t)
        if ok:
            return True
        state.restore(snap)
    return False


def _drain(state: ExchangeState, depth: int, limits: _Limits) -> bool:
    while state.missing:
        for t in sorted(state.missing):
            if _try_add(state, t, depth, limits):
                break
        else:
            return False
    return True


def exchange_coloring(target: Graph) -> EdgeColoring:
    """Total (n-1)-edge-coloring of an odd-order target with a full-degree vertex.

    The target must not be overfull (edge_count <= (n-1) * floor(n/2)); an
    overfull target cannot be colored in n-1 colors at all. Deterministic.
    Raises ExchangeFailure when the drain gets stuck or spends its node
    budget, which proves nothing about the target.
    """
    n = target.n
    if n < 3 or n % 2 == 0:
        raise ValueError(f"exchange transform needs odd order >= 3, got n={n}")
    if max_degree(target) != n - 1:
        raise ValueError("target must contain a vertex adjacent to all others")
    if is_overfull(target):
        raise ValueError(
            f"target with {target.edge_count} edges is overfull; "
            f"no {n - 1}-coloring exists"
        )

    state = ExchangeState(target)
    if not _drain(state, CHAIN_DEPTH, _Limits(NODE_BUDGET)):
        raise ExchangeFailure(sorted(state.extra), sorted(state.missing), state.stats)
    extra = state.extra
    pairs = ((e, c) for e, c in state.edge_color.items() if e not in extra)
    return EdgeColoring(target, state.palette_size, pairs)


# ---------------------------------------------------------------------------
# per-group dispatch


@dataclass
class GroupColoring:
    """A coloring of a power graph, how it was obtained, and the class it proves."""

    coloring: EdgeColoring
    class_label: str  # "class1" | "class2" | "indeterminate"
    strategy: str
    stats: dict = field(default_factory=dict)

    @property
    def graph(self) -> Graph:
        return self.coloring.graph

    @property
    def colors_used(self) -> int:
        return self.coloring.colors_used()

    @property
    def certificate(self) -> OverfullReport | None:
        """The overfull report that proves class 2; None for any other label."""
        return deficiency_report(self.graph) if self.class_label == "class2" else None


def color_power_graph(group: Group) -> GroupColoring:
    """``color_graph`` on the power graph of ``group``."""
    return color_graph(build_power_graph(group))


def color_graph(graph: Graph) -> GroupColoring:
    """Color the graph with max_degree colors when it can, and label it by the proof.

    The graph alone decides the construction: at most one vertex is trivial;
    a graph with no full-degree vertex goes to exact search; otherwise even
    order gets the K_n round robin's colors, an odd overfull graph gets the
    full rotation scheme, and every other graph goes through the exchange
    transform, with exact search as the fallback. The class label is what the
    witness proves: "class1" for a max_degree-coloring, "class2" for a
    (max_degree + 1)-coloring of an overfull graph (``certificate`` is its
    overfull report), "indeterminate" otherwise.
    The coloring always passes verification by construction.
    """
    n = graph.n
    if n <= 1:
        return _labelled(EdgeColoring(graph, 0), "trivial")
    if max_degree(graph) < n - 1:  # round robin, rotation and exchange need one
        return _color_exact(graph)
    if n % 2 == 0:
        return _labelled(EdgeColoring(graph, n - 1, _round_robin_pairs(graph)), "roundrobin")
    if is_overfull(graph):
        return _labelled(EdgeColoring(graph, n, _rotation_pairs(graph)), "sp")
    try:
        return _labelled(exchange_coloring(graph), "rhee")
    except ExchangeFailure as failure:
        result = _color_exact(graph)
        result.stats["exchange_failure"] = {
            "remaining_extra": len(failure.remaining_extra),
            "remaining_missing": len(failure.remaining_missing),
        }
        return result


def _labelled(coloring: EdgeColoring, construction: str) -> GroupColoring:
    """Wrap ``coloring`` with the class it proves."""
    graph = coloring.graph
    if coloring.colors_used() == max_degree(graph):
        return GroupColoring(coloring, "class1", construction)
    if is_overfull(graph):
        return GroupColoring(coloring, "class2", construction)
    return GroupColoring(coloring, "indeterminate", construction)


def _color_exact(graph: Graph) -> GroupColoring:
    """Exact search, with a Misra-Gries witness when the search spends its budget."""
    exact = oracle.exact_chromatic_index(graph)
    spent = exact.budget_exhausted
    result = _labelled(oracle.misra_gries_coloring(graph) if spent else exact.witness, "exact")
    result.stats["oracle_nodes"] = exact.nodes_explored
    if spent:
        result.stats["budget_exhausted"] = True
    return result
