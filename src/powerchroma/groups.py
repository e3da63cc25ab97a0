"""Finite groups as explicit multiplication tables.

Groups are built from family specs (cyclic, dihedral, generalized quaternion,
direct products) or loaded from table files. Element 0 is always the identity.
The family tables are built from slices, products from shared row blocks,
with ``bytes`` rows up to order 256. A bytes row's type proves its entries
ints in 0..255, so validation checks only its bound, in C. Validation scans
the rows and columns for Latin faults only when a group axiom fails, and
composes byte rows in C up to order 256. Element orders and
cyclic-subgroup membership are cached at construction, since the power-graph
build queries them repeatedly. Construction walks the powers of an element
only when no earlier walk reached it, so at most once per cyclic subgroup,
and reads every subgroup inside it off that walk: if g has order o, then
<g^k> holds every gcd(k, o)-th power of g.
"""

from __future__ import annotations

import re
from itertools import chain
from math import gcd, prod
from operator import itemgetter
from pathlib import Path

__all__ = [
    "Group",
    "GroupSpecError",
    "GroupTableError",
    "construct_group",
    "cyclic_group",
    "dihedral_group",
    "direct_product",
    "euler_phi",
    "factorize",
    "is_cyclic",
    "load_table_file",
    "load_table_text",
    "quaternion_group",
    "validate_table",
]


# Largest order a spec may ask for: n vertices by a palette of n fill coloring._MAX_SLOTS.
MAX_ORDER = 4096

# Values a byte holds: up to this order an element index fits in a byte, so
# family rows are built as bytes and the validator composes rows with
# bytes.translate, whose map has this many entries.
_BYTE_VALUES = 256


class GroupSpecError(ValueError):
    """Malformed or unsupported group spec string."""


class GroupTableError(ValueError):
    """Multiplication table violates the group axioms."""


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Trial-division factorization of n >= 1 as (prime, exponent) pairs, primes increasing.

    1 yields the empty product; n is a prime power exactly when there is one pair.
    """
    if n < 1:
        raise ValueError(f"factorize({n}): expected n >= 1")
    factors: list[tuple[int, int]] = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            exp = 0
            while rest % p == 0:
                rest //= p
                exp += 1
            factors.append((p, exp))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return tuple(factors)


def euler_phi(n: int) -> int:
    """Count of 1 <= k <= n coprime to n, computed from the factorization."""
    if n < 1:
        raise ValueError(f"euler_phi({n}): expected n >= 1")
    out = 1
    for prime, exponent in factorize(n):
        out *= (prime - 1) * prime ** (exponent - 1)
    return out


def validate_table(table: tuple[tuple[int, ...], ...]) -> None:
    """Check the full group axioms: Latin square, identity at 0, associativity, inverses.

    Every row's length and entries (exact ints in 0..n-1) are checked first,
    then the identity, associativity and inverses. A ``bytes`` row holds exact
    ints in 0..255 by its type, so one ``translate`` that deletes 0..n-1 checks
    its bound; any other row, or a bytes row with an entry >= n, is checked
    entry by entry, with the same message. A table that passes these
    is a monoid with two-sided inverses, so a group, whose rows and columns
    are permutations. So rows, then columns, are scanned only when a check
    fails, before its error is raised: the messages and their precedence are
    those of checking them first.

    Associativity is verified exactly with Light's test (Clifford & Preston,
    *The Algebraic Theory of Semigroups* I, section 1.2): if a set A generates
    the table, it suffices that a*(b*c) = (a*b)*c for every b in A and all a, c,
    i.e. row_a composed with row_b equals row_{a*b}. A is chosen greedily (see
    ``_generating_set``); for a group |A| <= log2(n), so the check computes
    O(n^2 log n) products instead of n^3. A table that is not a group may need
    more generators, up to n - 1, and so more checks, never fewer. Up to
    n = 256 ``bytes.translate`` composes byte rows in C, each padded to its
    256-byte map; past that a byte cannot hold an index, and ``itemgetter`` does.
    """
    n = len(table)
    if n == 0:
        raise GroupTableError("empty multiplication table")
    below = bytes(range(min(n, _BYTE_VALUES)))  # a bytes row's entries that are in range
    well_formed = 0  # rows whose length and entries are checked
    try:
        for i, row in enumerate(table):
            if len(row) != n:
                raise GroupTableError(f"row {i} has length {len(row)}, expected {n}")
            if type(row) is not bytes or row.translate(None, below):
                for x in row:
                    if type(x) is not int or not 0 <= x < n:
                        raise GroupTableError(f"entry {x!r} in row {i} out of range 0..{n - 1}")
            well_formed += 1
        for j in range(n):
            if table[0][j] != j:
                raise GroupTableError("element 0 is not a left identity")
            if table[j][0] != j:
                raise GroupTableError("element 0 is not a right identity")
        if n <= _BYTE_VALUES:  # the bytes hold element indices, and translate maps through 256 bytes
            rows = [bytes(row) for row in table]
            maps = [row + bytes(_BYTE_VALUES - n) for row in rows]
            composer = lambda row: row.translate
        else:
            rows = maps = list(map(tuple, table))
            composer = lambda row: itemgetter(*row)
        for b in _generating_set(table):
            compose = composer(rows[b])
            for a, row_a in enumerate(rows):
                if compose(maps[a]) != rows[row_a[b]]:
                    raise GroupTableError(f"associativity fails at a={a}, b={b}")
        for a, row in enumerate(rows):
            if 0 not in row or rows[row.index(0)][a] != 0:
                raise GroupTableError(f"element {a} has no two-sided inverse")
    except GroupTableError:
        latin = "is not a permutation (Latin square violated)"
        for i in range(well_formed):
            if len(set(table[i])) != n:
                raise GroupTableError(f"row {i} {latin}") from None
        if well_formed == n:
            for j, col in enumerate(zip(*table)):
                if len(set(col)) != n:
                    raise GroupTableError(f"column {j} {latin}") from None
        raise


def _generating_set(table) -> list[int]:
    """Greedy generators of a table with in-range entries and a two-sided identity at 0.

    Repeatedly adds the smallest element outside the closure of {0} and the
    generators so far under multiplication by a generator on either side.
    That closure lies inside the submagma the generators produce (and equals
    the generated subgroup for a group), so the result always generates the
    whole table. The identity is left out: it passes Light's test trivially.
    Only the in-range entries and the identity are used, not Latin rows:
    every element enters ``inside`` at most once, so the walk ends.
    """
    n = len(table)
    inside = [True] + [False] * (n - 1)
    gens: list[int] = []
    for g in range(1, n):
        if inside[g]:
            continue
        gens.append(g)
        inside[g] = True
        frontier = [x for x in range(n) if inside[x]]
        while frontier:
            x = frontier.pop()
            for a in gens:
                for z in (table[x][a], table[a][x]):
                    if not inside[z]:
                        inside[z] = True
                        frontier.append(z)
    return gens


class Group:
    """Finite group on element indices 0..n-1 with the identity at index 0.

    The table is validated on construction; ``element_orders[g]`` is the order
    of g and ``powers_of(g)`` the cyclic subgroup it generates (as a frozenset
    of element indices, always containing the identity).

    The powers e, g, g^2, ... are walked only for a g that no earlier walk
    reached. Every h = g^k in that walk is filled from it: with o the order of
    g and d = gcd(k, o), h has order o / d and generates every d-th power of g.
    Elements that generate the same subgroup share one frozenset.
    """

    __slots__ = ("order", "table", "element_orders", "label", "element_names", "_powers")

    def __init__(self, table, label: str, element_names=None):
        rows = tuple(row if type(row) is bytes else tuple(row) for row in table)
        validate_table(rows)
        self.order = len(rows)
        self.table = rows = tuple(map(tuple, rows))
        self.label = label
        if element_names is None:
            names = tuple(f"g{i}" for i in range(self.order))
        else:
            names = tuple(str(s) for s in element_names)
            if len(names) != self.order:
                raise ValueError("element_names length does not match group order")
        self.element_names = names

        n = self.order
        orders = [1] + [0] * (n - 1)
        powers = [frozenset({0})] * n
        for g in range(1, n):
            if orders[g]:
                continue
            seq = [0]
            x = g
            while x:
                seq.append(x)
                x = rows[x][g]
            o = len(seq)
            subgroups = {}  # d -> <g^d>, the subgroup every g^k with gcd(k, o) = d generates
            for k, h in enumerate(seq):
                if not orders[h]:
                    d = gcd(k, o)
                    if d not in subgroups:
                        subgroups[d] = frozenset(seq[::d])
                    orders[h], powers[h] = o // d, subgroups[d]
        self.element_orders = tuple(orders)
        self._powers = tuple(powers)

    def powers_of(self, g: int) -> frozenset[int]:
        """The cyclic subgroup generated by g, as a set of element indices."""
        if not 0 <= g < self.order:
            raise IndexError(f"element index {g} out of range 0..{self.order - 1}")
        return self._powers[g]

    def __repr__(self) -> str:
        return f"Group({self.label!r}, order={self.order})"


def is_cyclic(group: Group) -> bool:
    """True iff some element has order equal to the group order."""
    return group.order in group.element_orders


def cyclic_group(n: int) -> Group:
    """Cyclic group of order n, element i standing for the i-th generator power."""
    if n < 1:
        raise GroupSpecError(f"cyclic:{n}: order must be >= 1")
    twice = _ints(range(n), n) * 2
    table = [twice[i : i + n] for i in range(n)]
    names = ["e"] + ["c" if i == 1 else f"c^{i}" for i in range(1, n)]
    return Group(table, f"cyclic:{n}", names)


def dihedral_group(n: int) -> Group:
    """Dihedral group of order 2n (n >= 3): rotations r^i and reflections r^i s."""
    if n < 3:
        raise GroupSpecError(f"dihedral:{n}: need n >= 3 (order 2n)")
    # r^i is element i and r^i s is element n + i; r^i s r^k = r^(i-k) s
    table = _twisted_table(n, 0)
    names = ["e"] + ["r" if i == 1 else f"r^{i}" for i in range(1, n)]
    names += ["s"] + ["r s" if i == 1 else f"r^{i} s" for i in range(1, n)]
    return Group(table, f"dihedral:{n}", names)


def quaternion_group(m: int) -> Group:
    """Generalized quaternion (dicyclic) group of order 4m (m >= 2).

    Presentation a^(2m) = e, b^2 = a^m, b a b^-1 = a^-1; elements a^i b^j.
    """
    if m < 2:
        raise GroupSpecError(f"quaternion:{m}: need m >= 2 (order 4m)")
    two_m = 2 * m
    # a^i is element i and a^i b is element 2m + i; a^i b a^k = a^(i-k) b and
    # a^i b a^k b = a^(i-k+m)
    table = _twisted_table(two_m, m)
    names = ["e"] + ["a" if i == 1 else f"a^{i}" for i in range(1, two_m)]
    names += ["b"] + ["a b" if i == 1 else f"a^{i} b" for i in range(1, two_m)]
    return Group(table, f"quaternion:{m}", names)


def _ints(values, order: int) -> bytes | tuple[int, ...]:
    """A row of element indices of a group of this order: bytes when a byte holds them."""
    return bytes(values) if order <= _BYTE_VALUES else tuple(values)


def _twisted_table(n: int, twist: int) -> list[bytes | tuple[int, ...]]:
    """Order-2n table on x^i (element i) and x^i y (n + i), with x^i y x^k = x^(i-k) y and
    x^i y x^k y = x^(i-k+twist), 0 <= twist < n: each row joins two slices of repeated
    ranges, counting up for x^i and down for x^i y, plain or shifted by n.
    """
    up = _ints(range(n), 2 * n) * 3
    up_y = _ints(range(n, 2 * n), 2 * n) * 2
    table = [up[i : i + n] + up_y[i : i + n] for i in range(n)]
    # up[j + n : j : -1] counts down from j mod n
    table += [up_y[i + n : i : -1] + up[i + twist + n : i + twist : -1] for i in range(n)]
    return table


def direct_product(*groups: Group) -> Group:
    """Direct product with mixed-radix element indexing; identity stays at 0.

    Factors are folded pairwise: in A x B the element (x, y) has index
    x*|B| + y, so the row of (a, b) joins, for each x in a's row, the block
    x*|B| + b's row. The blocks of one b are built once and shared by every a.
    Up to order 256 a block is b's byte row translated through x*|B| + y.
    """
    if len(groups) < 2:
        raise ValueError("direct_product needs at least two factors")
    table = groups[0].table
    parts = [(name,) for name in groups[0].element_names]
    for group in groups[1:]:
        m, k = group.order, len(table)
        product = [None] * (k * m)
        if k * m <= _BYTE_VALUES:
            shift = [bytes(range(x * m, x * m + m)) + bytes(_BYTE_VALUES - m) for x in range(k)]
            for b, row_b in enumerate(group.table):
                blocks = list(map(bytes(row_b).translate, shift))
                product[b::m] = [b"".join(map(blocks.__getitem__, row_a)) for row_a in table]
        else:
            for b, row_b in enumerate(group.table):
                # lists, since tuple blocks raised the peak RSS; one b's blocks live at a time
                blocks = [[x * m + y for y in row_b] for x in range(k)]
                product[b::m] = [tuple(chain.from_iterable(map(blocks.__getitem__, row_a))) for row_a in table]
        table = product
        parts = [p + (name,) for p in parts for name in group.element_names]
    label = "product:" + ",".join(g.label for g in groups)
    names = ["(" + ",".join(p) + ")" for p in parts]
    return Group(table, label, names)


# The text readers strip and split on ASCII whitespace only: a non-ASCII space
# is part of a value, never a separator.
_ASCII_SPACE = " \t\n\r\v\f"
_LINE_BREAK = re.compile(r"[\n\r\v\f]")
_FIELD = re.compile(r"\S+", re.ASCII)


def load_table_text(text: str, label: str = "table:<text>") -> Group:
    """Parse a table file body: first value n, then n rows of n indices.

    Blank lines and lines starting with '#' are ignored. Lines and values are
    separated by ASCII whitespace only: any other character, a non-ASCII space
    too, is part of a value and fails as an integer.
    """
    tokens: list[str] = []
    for line in _LINE_BREAK.split(text):
        fields = _FIELD.findall(line)
        if fields and not fields[0].startswith("#"):
            tokens.extend(fields)
    if not tokens:
        raise GroupTableError("table file is empty")
    try:
        n = _decimal(tokens[0])
    except ValueError as exc:
        raise GroupTableError(f"first value must be the order, got {tokens[0]!r}") from exc
    if n < 1:
        raise GroupTableError(f"order must be >= 1, got {n}")
    body = tokens[1:]
    if len(body) != n * n:
        raise GroupTableError(f"expected {n * n} table entries, found {len(body)}")
    try:
        values = [_decimal(t) for t in body]
    except ValueError as exc:
        raise GroupTableError("table entries must be integers") from exc
    rows = [values[i * n : (i + 1) * n] for i in range(n)]
    return Group(rows, label)


def load_table_file(path: str | Path) -> Group:
    path = Path(path)
    return load_table_text(path.read_text(encoding="utf-8"), f"table:{path}")


def construct_group(spec: str) -> Group:
    """Build a group from a spec string.

    Grammar: ``cyclic:n`` (n >= 1), ``dihedral:n`` (order 2n, n >= 3),
    ``quaternion:m`` (order 4m, m >= 2), ``product:<spec>,<spec>[,...]``
    with non-product factors, or ``table:<file>``. An order above ``MAX_ORDER``
    is refused before any table is built (a ``table:`` file is read first).
    """
    order, build = _parse_spec(spec)
    if order > MAX_ORDER:
        raise GroupSpecError(f"{spec!r} has order {order}, above the limit of {MAX_ORDER}")
    return build()


def _parse_spec(spec: str):
    """The order a spec asks for and a function that builds its group."""
    text = spec.strip(_ASCII_SPACE)
    head, sep, rest = text.partition(":")
    head = head.strip(_ASCII_SPACE).lower()
    rest = rest.strip(_ASCII_SPACE)
    if not sep or not rest:
        raise GroupSpecError(f"malformed group spec {spec!r}")
    families = {"cyclic": (cyclic_group, 1), "dihedral": (dihedral_group, 2),
                "quaternion": (quaternion_group, 4)}
    if head in families:
        family, scale = families[head]
        try:
            param = _decimal(rest)
        except ValueError as exc:
            raise GroupSpecError(f"expected an integer parameter in {spec!r}") from exc
        # a parameter below the family's least is refused by the family itself
        return scale * max(param, 1), lambda: family(param)
    if head == "product":
        parts = [p.strip(_ASCII_SPACE) for p in rest.split(",")]
        if len(parts) < 2:
            raise GroupSpecError(f"product spec needs at least two factors: {spec!r}")
        for part in parts:
            if part.partition(":")[0].strip(_ASCII_SPACE).lower() == "product":
                raise GroupSpecError(
                    f"nested products are not supported; flatten the factor list: {spec!r}"
                )
        factors = [_parse_spec(p) for p in parts]
        return prod(o for o, _ in factors), lambda: direct_product(*(b() for _, b in factors))
    if head == "table":
        group = load_table_file(rest)
        return group.order, lambda: group
    raise GroupSpecError(f"unknown group family {head!r} in spec {spec!r}")


def _decimal(text: str) -> int:
    """``int(text)`` for ASCII ``-?[0-9]+`` only; raises ValueError on anything else.

    ``int`` alone also takes a '+', surrounding spaces, '_' digit separators
    and non-ASCII digits, so the text readers parse their integers here.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)
