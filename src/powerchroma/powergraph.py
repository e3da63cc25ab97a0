"""Simple undirected graphs, the power-graph construction, and structural queries.

Vertices are 0..n-1. Adjacency is kept both as sorted neighbor tuples and as
one bitmask per vertex so edge tests are O(1); everything is immutable after
construction.
"""

from __future__ import annotations

import json
from itertools import compress
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple

from .groups import Group

__all__ = [
    "Edge",
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


class Edge(NamedTuple):
    """Canonical unordered vertex pair with u < v."""

    u: int
    v: int


# What Edge(a, b) does, less its Python-level constructor: make_edge runs once per
# edge in every layer.
_new_tuple = tuple.__new__


def make_edge(a: int, b: int) -> Edge:
    if a == b:
        raise ValueError(f"loop edge ({a}, {b}) is not allowed")
    return _new_tuple(Edge, (a, b) if a < b else (b, a))


class Graph:
    """Immutable simple graph with sorted neighbor sets and per-vertex bitmasks."""

    __slots__ = ("n", "neighbors", "bits", "edge_count", "labels")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], labels=None):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        bits = [0] * n
        for a, b in edges:
            e = make_edge(a, b)
            if not 0 <= e.u < n or not 0 <= e.v < n:
                raise ValueError(f"edge {e} out of range for n={n}")
            bits[e.u] |= 1 << e.v
            bits[e.v] |= 1 << e.u
        self._adopt_bits(bits, labels)

    def _adopt_bits(self, bits: list[int], labels) -> None:
        """Set every field from symmetric, loop-free adjacency bitmasks."""
        n = len(bits)
        self.n = n
        self.bits = tuple(bits)
        # bin() lists the bits high to low; reversed and mapped to 0/1 bytes it
        # selects the neighbors of each vertex in increasing order.
        self.neighbors = tuple(
            tuple(compress(range(n), bin(m)[:1:-1].encode().translate(_BIT_BYTES)))
            for m in bits
        )
        self.edge_count = sum(m.bit_count() for m in bits) // 2
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
        return len(self.neighbors[v])

    def edges(self) -> list[Edge]:
        """Every edge once, sorted: the rows are already in increasing order."""
        return [
            _new_tuple(Edge, (u, v)) for u, row in enumerate(self.neighbors) for v in row if u < v
        ]

    @property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges())

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    full = (1 << n) - 1
    graph = Graph.__new__(Graph)
    graph._adopt_bits([full ^ (1 << v) for v in range(n)], None)
    return graph


def build_power_graph(group: Group) -> Graph:
    """Power graph of a group: a ~ b iff one is a power of the other (a != b)."""
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


def max_degree(graph: Graph) -> int:
    if graph.n == 0:
        return 0
    return max(graph.degree(v) for v in range(graph.n))


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
