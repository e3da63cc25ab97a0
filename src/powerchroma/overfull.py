"""Overfullness, the edge-deficiency budget, and the class-1/class-2 prediction.

All comparisons use exact integer arithmetic: a graph on n vertices is
overfull when edge_count > max_degree * floor(n/2), which forces chromatic
index max_degree + 1 because no color class can exceed floor(n/2) edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .groups import Group, euler_phi, factorize, is_cyclic
from .powergraph import Graph, max_degree

__all__ = [
    "ClassPrediction",
    "CoreWitness",
    "GroupFacts",
    "OverfullReport",
    "core_class1_check",
    "deficiency_report",
    "edge_count_from_orders",
    "is_overfull",
    "predict_class",
]


@dataclass(frozen=True)
class OverfullReport:
    n: int
    edge_count: int
    max_degree: int
    overfull: bool
    deficiency: int
    budget: int | None  # odd order only: most edges the graph may miss and stay overfull


@dataclass(frozen=True)
class GroupFacts:
    is_cyclic: bool
    odd: bool
    prime_power: bool


@dataclass(frozen=True)
class ClassPrediction:
    class_label: str  # "class1" | "class2"
    reason: str
    facts: GroupFacts


@dataclass(frozen=True)
class CoreWitness:
    condition: str  # "core-small" | "core-acyclic"
    core_size: int
    description: str


def is_overfull(graph: Graph) -> bool:
    """Exact integer test edge_count > max_degree * floor(n/2); false for n <= 1."""
    return graph.edge_count > max_degree(graph) * (graph.n // 2)


def deficiency_report(graph: Graph) -> OverfullReport:
    n = graph.n
    delta = max_degree(graph)
    return OverfullReport(
        n=n,
        edge_count=graph.edge_count,
        max_degree=delta,
        overfull=graph.edge_count > delta * (n // 2),  # is_overfull on this report's delta
        deficiency=n * (n - 1) // 2 - graph.edge_count,
        budget=(n - 1) // 2 - 1 if n % 2 == 1 else None,
    )


def edge_count_from_orders(group: Group) -> int:
    """The power graph's edge count from the element orders alone; no graph is built.

    Each y is joined to the o(y) - 1 others in <y>. Summed over y, that counts twice
    the phi(o(y)) - 1 edges from y to the other generators of <y>, and every other
    edge once. So |E| = sum o(x) - (n + sum phi(o(x))) / 2.
    """
    counts = Counter(group.element_orders)
    return (sum(k * (2 * o - euler_phi(o)) for o, k in counts.items()) - group.order) // 2


def predict_class(group: Group) -> ClassPrediction:
    """Class 2 exactly for cyclic groups of odd prime-power order >= 3, else class 1."""
    n = group.order
    facts = GroupFacts(
        is_cyclic=is_cyclic(group),
        odd=n % 2 == 1,
        prime_power=len(factorize(n)) == 1,
    )
    if facts.is_cyclic and facts.odd and facts.prime_power and n >= 3:
        return ClassPrediction("class2", "odd-prime-power-cyclic-overfull", facts)
    if n == 1:
        # single-vertex graph: the core is one vertex and the chromatic index is 0
        return ClassPrediction("class1", "core-small", facts)
    if not facts.odd:
        return ClassPrediction("class1", "even-order", facts)
    return ClassPrediction("class1", "theorem-classification", facts)


def core_class1_check(graph: Graph) -> CoreWitness | None:
    """Sufficient class-1 conditions from the core (max-degree induced subgraph).

    Returns a witness when the core has at most two vertices or is acyclic.
    Absence of a witness is not evidence of class 2. The core is read off the
    adjacency bitmasks, never built: k core vertices spanning m core edges in
    c components form a forest exactly when m = k - c, so m >= k already
    means a cycle and the components are counted only below that.
    """
    if graph.n < 1:
        return None
    top = max_degree(graph)
    core = [v for v, m in enumerate(graph.bits) if m.bit_count() == top]
    k = len(core)
    if k <= 2:
        noun = "vertex" if k == 1 else "vertices"
        return CoreWitness("core-small", k, f"core has {k} {noun}")
    bits = graph.bits
    mask = sum(1 << v for v in core)
    edges = sum((bits[v] & mask).bit_count() for v in core) // 2
    if edges >= k:
        return None
    components = 0
    while mask:  # flood one component of the core at a time
        components += 1
        reached = frontier = mask & -mask
        while frontier:
            v = frontier.bit_length() - 1
            grown = bits[v] & mask & ~reached
            reached |= grown
            frontier = (frontier ^ 1 << v) | grown
        mask &= ~reached
    if edges == k - components:
        return CoreWitness("core-acyclic", k, f"core is acyclic ({k} vertices)")
    return None
