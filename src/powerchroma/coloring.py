"""Edge colorings: verification, constructions, Kempe path inversion, and table/JSON IO.

An edge is a plain ``(u, v)`` tuple with u < v, the key of every mapping
here. Colors are 0-based internally and 1-based in every export, matching the
usual table presentation. A coloring given as pairs is built by one checked
fill: the ``EdgeColoring`` constructor colors its ``pairs`` in order, and
``assign`` is that loop over one pair. The two base constructions are
closed-form rules on an edge (u, v) with u < v, and ``_closed_form`` writes
either in one pass over the graph's bitmask rows (``_fill_rows``):

* round robin (n even, n-1 colors): color u when v = n-1, otherwise
  (u+v)*(n/2) mod (n-1). ``round_robin_coloring(n)`` is the 1-factorization
  of K_n by the circle method (fix vertex n-1, rotate the rest).
* rotation (n odd, n colors): class index ((u+v)*(n+1)/2 - 1) mod n, which
  ``_rotation_by_sum`` lists by u + v.
  ``rotation_classes(n)`` lists the n near-perfect matching classes
  S_p = {(p-q, p+q) mod n : q = 1..(n-1)/2} on labels 1..n; class p misses
  exactly the vertex labeled p. ``base_rotation_coloring(n)`` colors K_n with
  classes S_1..S_{n-1} on n-1 colors, leaving the matching S_n uncolored.

``verify_assignment`` reads only the mapping and the graph's bitmasks. A
valid witness passes one unsorted pass over the mapping; anything that pass
cannot accept gets the full sorted pass, which reports every fault.

The table and JSON I/O converts each integer once per call: the writers read
every vertex from a list of decimal strings (and the JSON writer every color
from a dict over the colors present), and the table reader keeps a memo from
each label text to its vertex, filled once both labels of a cell pass.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from itertools import zip_longest
from operator import itemgetter

from .groups import _ASCII_SPACE, _decimal
from .powergraph import Graph, _json_array, _row, complete_graph, make_edge

__all__ = [
    "ColorConflict",
    "ColoringError",
    "EdgeColoring",
    "VerificationReport",
    "base_rotation_coloring",
    "coloring_to_csv",
    "coloring_to_json",
    "parse_coloring_csv",
    "parse_coloring_json",
    "restrict_coloring",
    "rotation_classes",
    "round_robin_coloring",
    "verify_assignment",
    "verify_proper",
]


class ColoringError(ValueError):
    """Improper assignment or malformed coloring operation."""


class EdgeColoring:
    """Partial proper edge coloring with O(1) per-vertex color lookups.

    The constructor colors ``pairs`` and ``assign`` one more edge, both through
    ``_fill``, which refuses improper, out-of-palette, or off-graph moves, so
    every reachable state is proper by construction; ``verify_proper``
    re-checks independently from the raw assignment. ``edge_color`` maps each
    colored edge to its color; the flat table ``at[v * palette_size + c]`` is
    the vertex joined to v by color c, or -1 when v misses c. Only code that
    keeps the two in step may write them.
    """

    __slots__ = ("graph", "palette_size", "edge_color", "at")

    def __init__(self, graph: Graph, palette_size: int, pairs=()):
        if palette_size < 0:
            raise ColoringError(f"palette size must be >= 0, got {palette_size}")
        self.graph = graph
        self.palette_size = palette_size
        self.edge_color: dict[tuple[int, int], int] = {}
        self.at: list[int] = [-1] * (graph.n * palette_size)
        self._fill(pairs)

    def _fill(self, pairs) -> None:
        """Color each ``((a, b), color)`` in order; raise ColoringError at the first bad one.

        The checks run in this order: vertex range and adjacency, palette,
        already colored, a clash at u, a clash at v.
        """
        n, bits = self.graph.n, self.graph.bits
        p = self.palette_size
        edge_color, at = self.edge_color, self.at
        for k, color in pairs:
            # canonical keys (graph.edges(), the parsers) skip make_edge
            e = k if type(k) is tuple and len(k) == 2 and k[0] < k[1] else make_edge(*k)
            u, v = e
            # the range test keeps a negative index from wrapping into another row
            if u < 0 or v >= n or not bits[u] >> v & 1:
                raise ColoringError(f"edge {e} is not in the graph")
            if not 0 <= color < p:
                raise ColoringError(f"color {color} outside palette 0..{p - 1}")
            if e in edge_color:
                raise ColoringError(f"edge {e} already colored")
            iu, iv = u * p + color, v * p + color
            if at[iu] >= 0 or at[iv] >= 0:
                x = u if at[iu] >= 0 else v
                raise ColoringError(
                    f"color {color} already present at vertex {x} "
                    f"on edge {make_edge(x, at[x * p + color])}"
                )
            edge_color[e] = color
            at[iu] = v
            at[iv] = u

    def _fill_rows(self, by_sum: list[int], last: int) -> None:
        """Color every edge (u, v) of the graph: u when v = ``last``, else ``by_sum[u + v]``.

        One pass over the bitmask rows writes the keys in sorted order, as
        ``graph.edges()`` lists them. Each key is an edge of the graph, met
        once, and the rules reduce each color modulo the palette, so of
        ``_fill``'s checks only the clash test is left, with its message.
        """
        p = self.palette_size
        edge_color, at = self.edge_color, self.at
        for u, m in enumerate(self.graph.bits):
            up = u * p
            for v in _row(m, u + 1):
                color = u if v == last else by_sum[u + v]
                iu, iv = up + color, v * p + color
                if at[iu] >= 0 or at[iv] >= 0:
                    x = u if at[iu] >= 0 else v
                    raise ColoringError(
                        f"color {color} already present at vertex {x} "
                        f"on edge {make_edge(x, at[x * p + color])}"
                    )
                edge_color[(u, v)] = color
                at[iu] = v
                at[iv] = u

    def color_of(self, a: int, b: int) -> int | None:
        return self.edge_color.get(make_edge(a, b))

    def missing_at(self, v: int) -> list[int]:
        """The colors v misses, ascending."""
        # the range test keeps a negative v from reading another vertex's row
        if not 0 <= v < self.graph.n:
            raise ColoringError(f"vertex {v} is out of range 0..{self.graph.n - 1}")
        p = self.palette_size
        row = self.at[v * p:(v + 1) * p]
        out = []
        c = -1
        for _ in range(row.count(-1)):
            c = row.index(-1, c + 1)
            out.append(c)
        return out

    def assign(self, a: int, b: int, color: int) -> None:
        self._fill((((a, b), color),))

    def unassign(self, a: int, b: int) -> int:
        e = make_edge(a, b)
        if e not in self.edge_color:
            raise ColoringError(f"edge {e} is not colored")
        color = self.edge_color.pop(e)
        p = self.palette_size
        self.at[e[0] * p + color] = -1
        self.at[e[1] * p + color] = -1
        return color

    def items(self):
        return self.edge_color.items()

    def __len__(self) -> int:
        return len(self.edge_color)

    def colors_used(self) -> int:
        return len(set(self.edge_color.values()))

    def invert_path(self, v: int, first: int, second: int) -> list[int]:
        """Swap ``first`` and ``second`` along the two-color path from v; return its vertices.

        The path leaves v along ``first`` and alternates until it cannot go on.
        v must miss ``second``, so it ends the path and the path is never a
        cycle. Each end misses the color its end edge is swapped to, so the
        coloring stays proper.
        """
        p, at = self.palette_size, self.at
        # the range tests keep a negative index from wrapping into another row
        if not (0 <= first < p and 0 <= second < p):
            raise ColoringError(f"colors {first}, {second} outside palette 0..{p - 1}")
        if not 0 <= v < self.graph.n or at[v * p + second] >= 0:
            raise ColoringError(f"vertex {v} is out of range or has color {second}")
        edge_color = self.edge_color
        path = [v]
        x, col, new = v, first, second
        while (y := at[x * p + col]) >= 0:
            edge_color[(x, y) if x < y else (y, x)] = new
            path.append(y)
            x, col, new = y, new, col
        # every path vertex trades its two partners; an end's missing one stays -1
        for w in path:
            i, j = w * p + first, w * p + second
            at[i], at[j] = at[j], at[i]
        return path

    def __repr__(self) -> str:
        return (
            f"EdgeColoring(n={self.graph.n}, colored={len(self)}/"
            f"{self.graph.edge_count}, palette={self.palette_size})"
        )


@dataclass(frozen=True)
class ColorConflict:
    vertex: int
    color: int
    first: tuple[int, int]
    second: tuple[int, int]


def _shown(color) -> str:
    """A color as printed: an int 1-based, anything else as its repr."""
    return str(color + 1) if type(color) is int else repr(color)


@dataclass(frozen=True)
class VerificationReport:
    n: int
    palette_size: int
    colored_count: int
    distinct_colors: int
    conflicts: tuple[ColorConflict, ...]
    uncolored: tuple[tuple[int, int], ...]
    foreign_edges: tuple[tuple[int, int], ...]  # keys absent from the graph, or not pairs of ints
    out_of_palette: tuple[tuple[tuple[int, int], int], ...]

    @property
    def valid(self) -> bool:
        return not (self.conflicts or self.uncolored or self.foreign_edges or self.out_of_palette)

    def describe(self) -> str:
        if self.valid:
            return (
                f"valid: {self.colored_count} edges, {self.distinct_colors} colors "
                f"(palette {self.palette_size})"
            )
        parts = []
        for c in self.conflicts:
            parts.append(
                f"conflict at vertex {c.vertex}: color {_shown(c.color)} on edges "
                f"{c.first} and {c.second}"
            )
        if self.uncolored:
            parts.append(f"uncolored edges: {list(self.uncolored)}")
        if self.foreign_edges:
            parts.append(f"edges not in graph: {list(self.foreign_edges)}")
        if self.out_of_palette:
            parts.append(
                "out-of-palette: " + ", ".join(f"{e} -> {_shown(c)}" for e, c in self.out_of_palette)
            )
        return "; ".join(parts)


# Largest slot table, in bytes, that the one-pass check allocates (n * palette_size):
# n = 4096 with a palette of n. A larger n, or a palette read from a file, takes the
# sorted pass, which allocates by the mapping alone.
_MAX_SLOTS = 1 << 24


def _is_total_and_proper(graph: Graph, mapping: dict, palette_size: int) -> bool:
    """True when the mapping colors every edge of ``graph`` properly, checked in one pass.

    Each key must be a canonical pair of ints (u < v) that is an edge, each
    color an int in the palette, and no (vertex, color) slot may be taken
    twice. Distinct keys, each an edge, as many as the graph has edges, are
    exactly its edge set. It reads only the mapping and ``graph.bits``.
    False means only "not shown here": a bool, a reversed key, or a palette
    above n or past ``_MAX_SLOTS`` is left to the sorted pass.
    """
    n, bits = graph.n, graph.bits
    p = palette_size
    if len(mapping) != graph.edge_count or not 0 <= p <= n or n * p > _MAX_SLOTS:
        return False
    taken = bytearray(n * p)
    for k, color in mapping.items():
        if type(k) is not tuple or len(k) != 2:
            return False
        u, v = k
        if type(u) is not int or type(v) is not int or type(color) is not int:
            return False
        if not (0 <= u < v < n and bits[u] >> v & 1 and 0 <= color < p):
            return False
        iu, iv = u * p + color, v * p + color
        if taken[iu] or taken[iv]:
            return False
        taken[iu] = taken[iv] = 1
    return True


def verify_assignment(graph: Graph, mapping: dict, palette_size: int) -> VerificationReport:
    """Independent properness check of a raw edge -> integer color mapping.

    A valid mapping is accepted in one pass by ``_is_total_and_proper``; any
    other gets ``_sorted_report``, which lists each fault.
    """
    if not _is_total_and_proper(graph, mapping, palette_size):
        return _sorted_report(graph, mapping, palette_size)
    colors = len(set(mapping.values()))
    return VerificationReport(graph.n, palette_size, len(mapping), colors, (), (), (), ())


def _sorted_report(graph: Graph, mapping: dict, palette_size: int) -> VerificationReport:
    """Every fault of the mapping, found in one pass over its entries sorted by edge.

    A key that is not a pair of distinct exact ints is foreign as given; a
    color that is not an exact int is out of the palette. Neither is coerced.
    """
    n, bits = graph.n, graph.bits
    twice: list[ColorConflict] = []
    conflicts: list[ColorConflict] = []
    foreign: list = []
    out_of_palette: list = []
    first_at: dict[int, tuple[int, int]] = {}  # color * n + x: unique, as 0 <= x < n
    colors = set()
    prev = None
    entries = []
    for k, c in mapping.items():
        pair = type(k) is tuple and len(k) == 2 and type(k[0]) is type(k[1]) is int
        if pair and k[0] != k[1]:
            # canonical keys (what the parsers and EdgeColoring hold) skip make_edge
            entries.append((k if k[0] < k[1] else make_edge(*k), c))
        else:
            foreign.append(k)
    # stable on the edge alone: of (u, v) and (v, u), the first listed keeps its color
    for e, color in sorted(entries, key=itemgetter(0)):
        if e == prev:
            twice.append(ColorConflict(e[0], color, e, e))
            continue
        prev = e
        u, v = e
        if u < 0 or v >= n or not bits[u] >> v & 1:
            foreign.append(e)
            continue
        if type(color) is not int:
            out_of_palette.append((e, color))
            continue
        colors.add(color)
        if not 0 <= color < palette_size:
            out_of_palette.append((e, color))
        for x in e:
            first = first_at.setdefault(color * n + x, e)  # e itself when x lacked color
            if first is not e:
                conflicts.append(ColorConflict(x, color, first, e))
    colored = len(mapping) - len(twice) - len(foreign)
    uncolored = ()
    if colored != graph.edge_count:  # colored edges are a subset of E
        listed = {e for e, _ in entries}
        uncolored = tuple(e for e in graph.edges() if e not in listed)
    return VerificationReport(
        n=n,
        palette_size=palette_size,
        colored_count=colored,
        distinct_colors=len(colors),
        conflicts=tuple(twice + conflicts),
        uncolored=uncolored,
        foreign_edges=tuple(foreign),
        out_of_palette=tuple(out_of_palette),
    )


def verify_proper(graph: Graph, coloring: EdgeColoring) -> VerificationReport:
    """Check a coloring against a graph; valid means total, proper, in palette."""
    return verify_assignment(graph, coloring.edge_color, coloring.palette_size)


# ---------------------------------------------------------------------------
# constructions


def _rotation_by_sum(n: int) -> list[int]:
    """The rotation class index of each pair (u, v) of K_n (n odd), listed by s = u + v.

    The index is (s*(n+1)/2 - 1) mod n: class p-1 holds the pairs
    (p-q, p+q) mod n, which sum to 2p, and (n+1)/2 halves modulo the odd n.
    """
    half = (n + 1) // 2
    return [(s * half - 1) % n for s in range(2 * n - 1)]


def _closed_form(graph: Graph) -> EdgeColoring:
    """``graph`` colored by the round robin of K_n (n even) or its rotation scheme (n odd).

    The round robin colors (u, v) with u when v = n-1, and otherwise with
    (u+v)*(n/2) mod (n-1): color r holds (n-1, r) and the pairs (r+i, r-i)
    mod (n-1), which sum to 2r, and n/2 halves modulo the odd n-1. The
    rotation scheme colors it with its class index on n colors.
    """
    n = graph.n
    if n % 2:
        coloring = EdgeColoring(graph, n)
        coloring._fill_rows(_rotation_by_sum(n), n)  # no vertex is n
        return coloring
    half, last = n // 2, n - 1
    coloring = EdgeColoring(graph, last)
    coloring._fill_rows([s * half % last for s in range(2 * n - 1)], last)
    return coloring


def round_robin_coloring(n: int) -> EdgeColoring:
    """Total proper coloring of K_n (n even) with n-1 colors, each a perfect matching."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"round robin needs an even n >= 2, got {n}")
    return _closed_form(complete_graph(n))


def rotation_classes(n: int) -> list[list[tuple[int, int]]]:
    """The n near-perfect matching classes partitioning E(K_n) for odd n >= 3.

    Class index p-1 (p = 1..n) holds the edges (p-q, p+q) mod n over labels
    1..n for q = 1..(n-1)/2, translated to internal vertices (label n is
    vertex 0); it misses exactly the vertex labeled p. Each class is sorted.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"rotation classes need an odd n >= 3, got {n}")
    classes: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, index in _closed_form(complete_graph(n)).items():
        classes[index].append(e)
    return classes


def base_rotation_coloring(n: int) -> tuple[EdgeColoring, tuple[tuple[int, int], ...]]:
    """K_n (odd) colored with classes 1..n-1; the last class is returned uncolored."""
    classes = rotation_classes(n)
    pairs = ((e, color) for color, cls in enumerate(classes[:-1]) for e in cls)
    return EdgeColoring(complete_graph(n), n - 1, pairs), tuple(classes[-1])


def restrict_coloring(coloring: EdgeColoring, graph: Graph) -> EdgeColoring:
    """Restriction to a subgraph on the same vertex set."""
    if graph.n != coloring.graph.n:
        raise ColoringError("restriction target must have the same vertex set")
    kept = sorted(pair for pair in coloring.items() if graph.has_edge(*pair[0]))
    return EdgeColoring(graph, coloring.palette_size, kept)


# ---------------------------------------------------------------------------
# table and JSON IO

# re.ASCII: \s is ASCII whitespace only, the set the cells are stripped of
_EDGE_CELL = re.compile(r"\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)", re.ASCII)


def coloring_to_csv(coloring: EdgeColoring) -> str:
    """Table layout: header of 1-based colors, columns of "(u, v)" cells in 1..n labels."""
    n = coloring.graph.n
    dec = [str(v) for v in range(n + 1)]  # each label's text, made once
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(coloring.palette_size)]
    for k, c in coloring.items():
        # u < v, and the identity 0 is displayed as n, the largest label
        pairs[c].append((k[1], n) if k[0] == 0 else k)
    columns = [[f"({dec[u]}, {dec[v]})" for u, v in sorted(col)] for col in pairs]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([str(c + 1) for c in range(coloring.palette_size)])
    writer.writerows(zip_longest(*columns, fillvalue=""))
    return buf.getvalue()


def parse_coloring_csv(text: str, n: int) -> tuple[int, dict[tuple[int, int], int]]:
    """Parse a table back into (palette_size, internal edge -> 0-based color).

    Each label text is converted and range-checked the first time it is met;
    ``vertex`` keeps the result for the cells that repeat it.
    """
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:  # an overlong cell, a bare carriage return
        raise ColoringError(f"coloring table does not parse: {exc}") from None
    if not rows:
        raise ColoringError("empty coloring table")
    header = rows[0]
    labels = [h.strip(_ASCII_SPACE) for h in header]
    while labels and not labels[-1]:  # blank cells may only trail the header
        labels.pop()
    try:
        colors = [_decimal(h) for h in labels]
    except ValueError as exc:
        raise ColoringError(f"bad header row {header!r}") from exc
    if colors != list(range(1, len(colors) + 1)):
        raise ColoringError(f"header must count colors 1..k, got {colors}")
    palette = len(colors)
    mapping: dict[tuple[int, int], int] = {}
    vertex: dict[str, int] = {}  # label text -> vertex, for labels that passed
    match = _EDGE_CELL.fullmatch
    for row in rows[1:]:
        for idx, cell in enumerate(row):
            # a cell that matches as read has no space to strip
            m = match(cell) if idx < palette else None
            if m is None:
                cell = cell.strip(_ASCII_SPACE)
                if not cell:
                    continue
                if idx >= palette:
                    raise ColoringError(f"cell {cell!r} beyond declared palette")
                m = match(cell)
                if m is None:
                    raise ColoringError(f"cannot parse edge cell {cell!r}")
            u_text, v_text = m.groups()
            a, b = vertex.get(u_text), vertex.get(v_text)
            if a is None or b is None:
                try:
                    u_label, v_label = int(u_text), int(v_text)
                except ValueError:  # a label past the interpreter's digit limit
                    raise ColoringError(f"edge cell {cell!r} out of range for n={n}") from None
                if not (1 <= u_label <= n and 1 <= v_label <= n):
                    raise ColoringError(f"edge cell {cell!r} out of range for n={n}")
                # stored only once both labels pass, so no failure is remembered
                a = vertex[u_text] = u_label % n
                b = vertex[v_text] = v_label % n
            if a == b:  # distinct labels in 1..n stay distinct modulo n
                raise ColoringError(f"edge cell {cell!r} is a loop")
            e = (a, b) if a < b else (b, a)
            if e in mapping:
                raise ColoringError(f"edge {cell!r} listed twice")
            mapping[e] = idx
    return palette, mapping


def coloring_to_json(coloring: EdgeColoring) -> str:
    """The bytes of ``json.dumps(payload, indent=2, sort_keys=True)``, from templates."""
    edge_color = coloring.edge_color
    n, palette = coloring.graph.n, coloring.palette_size
    dec = [str(v) for v in range(n)]
    # keyed by the colors present, so a palette far above n allocates nothing more
    shown = {c: str(c + 1) for c in set(edge_color.values())}
    edges = _json_array([
        f'    {{\n      "color": {shown[edge_color[k]]},\n      "u": {dec[k[0]]},\n'
        f'      "v": {dec[k[1]]}\n    }}'
        for k in sorted(edge_color)
    ])
    return f'{{\n  "edges": {edges},\n  "n": {n},\n  "palette": {palette}\n}}'


def parse_coloring_json(text: str) -> tuple[int, int, dict[tuple[int, int], int]]:
    """Parse the flat JSON form into (n, palette_size, internal edge -> 0-based color).

    Malformed input raises a one-line ColoringError; no value is coerced.
    """
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # or too deep, or past the digit limit
        raise ColoringError(f"coloring JSON does not parse: {exc}") from None
    if type(payload) is not dict:
        raise ColoringError("coloring JSON must be an object with n, palette and edges")
    for key in ("n", "palette", "edges"):
        if key not in payload:
            raise ColoringError(f"coloring JSON lacks {key!r}")
    n, palette, edges = payload["n"], payload["palette"], payload["edges"]
    if type(n) is not int or n < 0:
        raise ColoringError(f"coloring JSON 'n' must be an integer >= 0, got {n!r}")
    if type(palette) is not int or palette < 0:
        raise ColoringError(f"coloring JSON 'palette' must be an integer >= 0, got {palette!r}")
    if type(edges) is not list:
        raise ColoringError("coloring JSON 'edges' must be a list")
    mapping: dict[tuple[int, int], int] = {}
    for item in edges:
        if type(item) is not dict:
            raise ColoringError(f"edge entry {item!r} must be an object with u, v and color")
        u, v, color = item.get("u"), item.get("v"), item.get("color")
        if type(u) is not int or type(v) is not int or type(color) is not int:
            raise ColoringError(f"edge entry {item!r} must hold integers u, v and color")
        if u == v:
            raise ColoringError(f"edge entry {item!r} is a loop")
        e = (u, v) if u < v else (v, u)
        if e in mapping:
            raise ColoringError(f"edge {e} listed twice")
        mapping[e] = color - 1
    return n, palette, mapping
