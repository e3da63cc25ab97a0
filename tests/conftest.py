"""Shared test helpers: independent brute-force oracles kept separate from the library."""

from __future__ import annotations

import math
import random

import pytest

from powerchroma import Graph, Group, GroupTableError, make_edge
from powerchroma.coloring import walk_alternating
from powerchroma.exchange import _sacrifice_candidates


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

    Uses only the state's public methods; the library plans the same attempt
    on its flat table and skips the mirror walk from u.
    """
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
            verts, closed = walk_alternating(state.neighbor_at, v, alpha, beta)
            if not closed and verts[-1] != u:
                state.swap_path_colors(verts, alpha, beta)
                state.stats["inversions"] += 1
                state.add_edge(add, alpha)
                state.stats["exchanges"] += 1
                return True
            verts, closed = walk_alternating(state.neighbor_at, u, beta, alpha)
            if not closed and verts[-1] != v:
                state.swap_path_colors(verts, beta, alpha)
                state.stats["inversions"] += 1
                state.add_edge(add, beta)
                state.stats["exchanges"] += 1
                return True
    state.add_edge(remove, x)
    return False


def reference_try_add(state, t, depth, limits) -> bool:
    """The drain step with every extra edge walked in sorted order; no skipping."""
    state.stats["chain_calls"] += 1
    if not limits.spend():
        return False
    for r in sorted(state.extra):
        if reference_attempt_exchange(state, r, t):
            return True
    if depth <= 0:
        return False
    for r in _sacrifice_candidates(state, t, limits):
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
    while state.missing:
        for t in sorted(state.missing):
            if reference_try_add(state, t, depth, limits):
                break
        else:
            return False
    return True


def brute_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


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
