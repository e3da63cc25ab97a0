"""Simple undirected graphs, the power-graph construction, and structural queries.

Vertices are 0..n-1. Adjacency is one bitmask per vertex and nothing else:
edge tests and degrees read it in O(1), and ``Graph.edges`` decodes it on
request. An edge is a plain ``(u, v)`` tuple with u < v. Everything is
immutable after construction.
"""

from __future__ import annotations

import json
from itertools import compress
from json.encoder import encode_basestring_ascii
from typing import Iterable

from .groups import Group

__all__ = [
    "Graph",
    "MAX_JSON_ORDER",
    "build_power_graph",
    "complete_graph",
    "graph_from_json",
    "graph_to_dot",
    "graph_to_json",
    "make_edge",
    "max_degree",
    "display_vertex",
]


# Largest "n" that ``graph_from_json`` accepts. A group of this order would need a
# 10^12-entry table, far past any this package builds; a larger "n" is refused
# before its bitmask row list is allocated.
MAX_JSON_ORDER = 1_000_000

# Maps the characters "0"/"1" to the bytes 0/1 (selectors for ``compress``).
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def make_edge(a: int, b: int) -> tuple[int, int]:
    """The canonical pair (u, v) with u < v; a loop raises ValueError."""
    if a == b:
        raise ValueError(f"loop edge ({a}, {b}) is not allowed")
    return (a, b) if a < b else (b, a)


class Graph:
    """Immutable simple graph held as one adjacency bitmask per vertex."""

    __slots__ = ("n", "bits", "edge_count", "labels")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], labels=None):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        bits = [0] * n
        for a, b in edges:
            u, v = make_edge(a, b)
            if not 0 <= u < n or not 0 <= v < n:
                raise ValueError(f"edge {(u, v)} out of range for n={n}")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self._adopt_bits(bits, labels)

    def _adopt_bits(self, bits: list[int], labels) -> None:
        """Set every field from symmetric, loop-free adjacency bitmasks."""
        n = len(bits)
        self.n = n
        self.bits = tuple(bits)
        self.edge_count = sum(map(int.bit_count, bits)) // 2
        if labels is None:
            self.labels = tuple(str(i) for i in range(n))
        else:
            self.labels = tuple(str(s) for s in labels)
            if len(self.labels) != n:
                raise ValueError("labels length does not match vertex count")

    def has_edge(self, a: int, b: int) -> bool:
        n = self.n
        return 0 <= a < n and 0 <= b < n and bool(self.bits[a] >> b & 1)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")
        return self.bits[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Every edge once, sorted: each row's bits above u, decoded in increasing order."""
        return [(u, v) for u, m in enumerate(self.bits) for v in _row(m, u + 1)]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _row(mask: int, low: int):
    """The vertices at or above ``low`` set in ``mask``, in increasing order."""
    rest = mask >> low
    selectors = bin(rest)[:1:-1].encode().translate(_BIT_BYTES)  # bin() lists bits high to low
    return compress(range(low, low + rest.bit_length()), selectors)


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    full = (1 << n) - 1
    graph = Graph.__new__(Graph)
    graph._adopt_bits([full ^ (1 << v) for v in range(n)], None)
    return graph


def build_power_graph(group: Group) -> Graph:
    """Power graph of a group: a ~ b iff one is a power of the other (a != b).

    So a ~ b when a lies in the cyclic subgroup b generates. Each distinct subgroup
    (one frozenset in ``Group``) is walked once and joined to all its generators.
    """
    generators: dict[frozenset[int], list[int]] = {}
    for b in range(group.order):
        generators.setdefault(group.powers_of(b), []).append(b)
    bits = [0] * group.order
    for subgroup, gens in generators.items():
        gen_mask = sum(1 << b for b in gens)
        for a in subgroup:
            bits[a] |= gen_mask
        sub_mask = sum(1 << a for a in subgroup)
        for b in gens:  # gen_mask gave b its own bit; no other subgroup's does
            bits[b] = (bits[b] | sub_mask) & ~(1 << b)
    graph = Graph.__new__(Graph)
    graph._adopt_bits(bits, group.element_names)
    return graph


def max_degree(graph: Graph) -> int:
    return max(map(int.bit_count, graph.bits), default=0)


def display_vertex(v: int, n: int) -> int:
    """Internal vertex index to 1..n display label (identity 0 prints as n)."""
    return v if v >= 1 else n


def _json_array(items: list[str]) -> str:
    """A top-level value as ``json.dumps(..., indent=2)`` writes it; items come indented by 4."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def graph_to_json(graph: Graph) -> str:
    """The bytes of ``json.dumps(payload, indent=2, sort_keys=True)``, from templates.

    With ``indent``, CPython's json runs its pure-Python encoder, token by token.
    """
    edges = _json_array([f"    [\n      {u},\n      {v}\n    ]" for u, v in graph.edges()])
    labels = _json_array([f"    {encode_basestring_ascii(s)}" for s in graph.labels])
    return f'{{\n  "edges": {edges},\n  "labels": {labels},\n  "n": {graph.n}\n}}'


def graph_from_json(text: str) -> Graph:
    """Parse ``graph_to_json`` output; malformed input raises a one-line ValueError.

    One pass over the edges checks their shape and fills the bitmasks. The message
    is that of the first failing check: shape, labels type, negative n, n above
    ``MAX_JSON_ORDER``, the first loop or out-of-range edge, labels length, an
    edge listed twice.
    """
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("graph JSON is nested past the interpreter's stack") from None
    except ValueError as exc:  # not JSON, or a number past the digit limit
        raise ValueError(f"graph JSON does not parse: {exc}") from None
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise ValueError('graph JSON must be an object with "n" and "edges" keys')
    n, edges, labels = payload["n"], payload["edges"], payload.get("labels")
    if type(n) is not int:
        raise ValueError(f'graph JSON "n" must be an integer, got {n!r}')
    shape = 'graph JSON "edges" must be a list of [u, v] integer pairs'
    if type(edges) is not list:
        raise ValueError(shape)
    size = n if 0 <= n <= MAX_JSON_ORDER else 0  # any edge is out of range for a refused n
    bits = [0] * size
    bad = None  # the first loop or out-of-range edge
    twice = False
    for e in edges:
        if type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
            raise ValueError(shape)
        if bad is None:
            a, b = e
            if a == b or not (0 <= a < size and 0 <= b < size):
                bad = e
            elif bits[a] >> b & 1:
                twice = True
            else:
                bits[a] |= 1 << b
                bits[b] |= 1 << a
    if labels is not None and not (type(labels) is list and all(type(s) is str for s in labels)):
        raise ValueError('graph JSON "labels" must be a list of strings')
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    if n > MAX_JSON_ORDER:
        raise ValueError(f'graph JSON "n" must be at most {MAX_JSON_ORDER}, got {n}')
    if bad is not None:  # make_edge raises first for a loop
        raise ValueError(f"edge {make_edge(*bad)} out of range for n={n}")
    graph = Graph.__new__(Graph)
    graph._adopt_bits(bits, labels)
    if twice:
        raise ValueError("graph JSON lists an edge twice")
    return graph


def graph_to_dot(graph: Graph, display_labels: bool = False) -> str:
    """DOT rendering with vertex labels."""
    lines = ["graph powergraph {"]
    for v in range(graph.n):
        label = str(display_vertex(v, graph.n)) if display_labels else graph.labels[v]
        lines.append(f'  n{v} [label="{label}"];')
    for u, v in graph.edges():
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
