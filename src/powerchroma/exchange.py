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
all under a budget of ``NODE_BUDGET`` chain calls, counted in
``stats["chain_calls"]``. The state works on the same ``EdgeColoring`` table
as every other coloring, and a colored edge is extra exactly when the
target's bit for it is 0. When the drain fails, ``ExchangeFailure`` carries
diagnostics and proves nothing about the target's chromatic index;
``color_graph`` then falls back to exact search, as it does for every graph
with no full-degree vertex.

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
from heapq import merge
from itertools import repeat

from . import oracle
from .coloring import EdgeColoring, _closed_form, _rotation_by_sum
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

    ``missing`` holds target edges not currently colored; ``banned``, the
    edges a running sacrifice chain brought in and may not give up again.
    ``extra`` (colored edges absent from the target) is read off the table.
    Exchanges keep the coloring proper; |extra| - |missing| is invariant.

    The state starts from the rotation base (the rotation scheme of K_n less
    the class n-1): color c joins u to (2c + 2 - u) mod n and misses vertex
    c + 1, and the class left out is the pairs with u + v = n. The base is
    written straight into the table with no per-edge checks: each row of
    ``edge_color`` is a slice of the colors listed by u + v
    (``_rotation_by_sum``), less the one pair of the class left out.

    The finished coloring is the state's own table with the extra edges
    lifted out; it is not refilled through the checked fill. Every write
    the drain makes goes through ``assign``'s checked fill or
    ``invert_path``, a test pins the base against the checked construction,
    and every caller that reports a witness verifies it independently with
    ``verify_assignment``.
    """

    __slots__ = ("target", "missing", "banned", "stats")

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
        # sorted, as a row fill of the rotation scheme would leave it; pair
        # (u, v) takes the entry for u + v, and the pair with u + v = n is left out
        by_sum = _rotation_by_sum(n)
        edge_color = {}
        for u in range(n):
            edge_color.update(zip(zip(repeat(u), range(u + 1, n)), by_sum[2 * u + 1:u + n]))
            if 0 < u < n - u:
                del edge_color[(u, n - u)]
        self.edge_color = edge_color
        self.target = target
        # the base colors every pair but those with u + v = n
        self.missing = {(u, n - u) for u in range(1, half) if target.bits[u] >> (n - u) & 1}
        self.banned: set[tuple[int, int]] = set()
        counters = ("attempts", "exchanges", "inversions", "chain_calls", "restores")
        self.stats = dict.fromkeys(counters, 0)

    @property
    def extra(self) -> set[tuple[int, int]]:
        """The colored edges absent from the target."""
        bits = self.target.bits
        return {(u, v) for u, v in self.edge_color if not bits[u] >> v & 1}

    def remove_edge(self, e: tuple[int, int]) -> int:
        u, v = e
        color = self.unassign(u, v)
        if self.target.bits[u] >> v & 1:
            self.missing.add(e)
        return color

    def add_edge(self, e: tuple[int, int], color: int) -> None:
        self.assign(*e, color)
        self.missing.discard(e)

    def snapshot(self):
        return dict(self.edge_color), list(self.at), set(self.missing)

    def restore(self, snap) -> None:
        edge_color, at, missing = snap
        self.edge_color = dict(edge_color)
        self.at = list(at)
        self.missing = set(missing)
        self.stats["restores"] += 1


def _plan(state: ExchangeState, add: tuple[int, int]) -> tuple[int, int] | None:
    """How the absent edge ``add`` = (u, v) can be colored in the current table.

    Returns (c, -1) when u and v share a missing color (c the least), and
    (alpha, beta) when inverting the alpha/beta path from v frees alpha at v
    (the first such pair in sorted order); None when neither exists.
    """
    at, p = state.at, state.palette_size
    u, v = add
    missing_u = state.missing_at(u)
    missing_v = state.missing_at(v)
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


def _attempt_exchange(
    state: ExchangeState, remove: tuple[int, int], add: tuple[int, int], undo: list | None = None
) -> bool:
    """Trade one colored edge for one absent edge; at most one Kempe inversion.

    On success the state is updated; on failure it is left exactly as found.
    The trade is planned before anything is written, so when ``undo`` is a
    list, a snapshot of the state as found is appended to it only once there
    is a trade to undo.
    """
    state.stats["attempts"] += 1
    at, p = state.at, state.palette_size
    x = state.edge_color[remove]
    a, b = remove
    # plan with ``remove`` lifted out of the table, then put it back
    at[a * p + x] = -1
    at[b * p + x] = -1
    plan = _plan(state, add)
    at[a * p + x] = b
    at[b * p + x] = a
    if plan is None:
        return False
    if undo is not None:
        undo.append(state.snapshot())
    state.remove_edge(remove)
    color, beta = plan
    if beta >= 0:
        state.invert_path(add[1], color, beta)  # v misses beta
        state.stats["inversions"] += 1
    state.add_edge(add, color)
    state.stats["exchanges"] += 1
    return True


def _sacrifice_candidates(state: ExchangeState, t: tuple[int, int]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    seen = set()
    p, bits = state.palette_size, state.target.bits
    for w in t:
        for x in state.at[w * p:(w + 1) * p]:
            if x < 0 or not bits[w] >> x & 1:  # absent, or extra
                continue
            e = (w, x) if w < x else (x, w)
            if e == t or e in seen or e in state.banned:
                continue
            seen.add(e)
            out.append(e)
    return out


def _relevant(state: ExchangeState, t: tuple[int, int]):
    """The extra edges the lemma cannot settle for t, in sorted order, yielded lazily.

    These are the extra edges at an endpoint of t and those whose color is
    missing at an endpoint; removing any other extra edge changes no walk.
    Each source is sorted, and they are merged as the drain asks for the next
    candidate, with repeats skipped, so an early success lists no more. A
    failed ``_attempt_exchange`` leaves the state as found, so every source
    reads the state this call saw.
    """
    sources = [_extra_at(state, w) for w in t]
    sources += [_extra_in_class(state, c) for w in t for c in state.missing_at(w)]
    last = None
    for e in merge(*sources):
        if e != last:
            last = e
            yield e


def _extra_at(state: ExchangeState, w: int):
    """The extra edges at w, sorted: its non-neighbours in the target, ascending, colored at w."""
    p = state.palette_size
    colored = set(state.at[w * p:(w + 1) * p])
    absent = ((1 << state.target.n) - 1) ^ state.target.bits[w]
    for x in _row(absent, 0):
        if x in colored:
            yield (x, w) if x < w else (w, x)


def _extra_in_class(state: ExchangeState, c: int):
    """The extra edges of color c, sorted: the class as a partner list, by its lower end."""
    bits = state.target.bits
    for y, x in enumerate(state.at[c::state.palette_size]):
        if x > y and not bits[y] >> x & 1:
            yield y, x


def _try_add(state: ExchangeState, t: tuple[int, int], depth: int) -> bool:
    """Bring target edge t into the working graph, sacrificing up to `depth` edges.

    Only the ``_relevant`` extra edges are tried, in sorted order. The drain
    keeps every color class a near-perfect matching, so t cannot be added
    with no removal, and by the lemma in the module docstring every other
    extra edge fails. Every call counts against ``NODE_BUDGET``.
    """
    state.stats["chain_calls"] += 1
    if state.stats["chain_calls"] > NODE_BUDGET:
        return False
    for r in _relevant(state, t):
        if _attempt_exchange(state, r, t):
            return True
    if depth <= 0:
        return False
    undo: list = []
    for r in _sacrifice_candidates(state, t):
        if not _attempt_exchange(state, r, t, undo):
            continue
        state.banned.add(t)
        ok = _try_add(state, r, depth - 1)
        state.banned.discard(t)
        if ok:
            return True
        state.restore(undo.pop())
    return False


def _drain(state: ExchangeState, depth: int) -> bool:
    while state.missing:
        for t in sorted(state.missing):
            if _try_add(state, t, depth):
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
    if not _drain(state, CHAIN_DEPTH):
        raise ExchangeFailure(sorted(state.extra), sorted(state.missing), state.stats)
    # the state's own table over the target, with each extra edge unassigned in
    # place; see ``ExchangeState``
    bits, p = target.bits, state.palette_size
    edge_color, at = state.edge_color, state.at
    for e in [e for e in edge_color if not bits[e[0]] >> e[1] & 1]:
        color = edge_color.pop(e)
        at[e[0] * p + color] = at[e[1] * p + color] = -1
    coloring = EdgeColoring.__new__(EdgeColoring)
    coloring.graph, coloring.palette_size = target, p
    coloring.edge_color, coloring.at = edge_color, at
    return coloring


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
        return _labelled(_closed_form(graph), "roundrobin")
    if is_overfull(graph):
        return _labelled(_closed_form(graph), "sp")
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
