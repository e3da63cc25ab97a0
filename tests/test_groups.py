"""Group construction, validation, and arithmetic queries."""

import math
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerchroma import (
    Group,
    GroupSpecError,
    GroupTableError,
    construct_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    euler_phi,
    factorize,
    generate_catalog,
    is_cyclic,
    load_table_file,
    load_table_text,
    quaternion_group,
    survey_group,
    validate_table,
)
from powerchroma import groups as groups_module
from powerchroma.groups import MAX_ORDER, _generating_set
from conftest import (
    brute_is_power,
    brute_phi,
    catalog_groups_to_120,
    reference_closures,
    reference_generating_set,
    reference_group,
    reference_validate_table,
)

SMALL_TABLES = [construct_group(spec).table for spec in generate_catalog(12)]
NESTED = "nested products are not supported; flatten the factor list: {spec!r}"


def message(validator, table):
    """None when the validator accepts, else its full error message."""
    try:
        validator(table)
    except GroupTableError as exc:
        return str(exc)
    return None


def assert_same_message_as_reference(table):
    """Equal messages, except that an associativity failure may name another pair.

    Light's test tries b only over a generating set, so it can report a
    different failing (a, b) than the reference's scan of every pair; the
    pair it names must fail all the same.
    """
    got, expected = message(validate_table, table), message(reference_validate_table, table)
    if got and expected and got.startswith("associativity") and expected.startswith("associativity"):
        a, b = map(int, re.fullmatch(r"associativity fails at a=(\d+), b=(\d+)", got).groups())
        assert [table[a][x] for x in table[b]] != list(table[table[a][b]]), got
    else:
        assert got == expected


def intercalates(table):
    """Cells (i1, i2, j1, j2) off row and column 0 holding x, y / y, x."""
    n = len(table)
    out = []
    for i1 in range(1, n):
        for i2 in range(i1 + 1, n):
            for j1 in range(1, n):
                x, y = table[i1][j1], table[i2][j1]
                j2 = table[i1].index(y)
                if j2 > j1 and table[i2][j2] == x:
                    out.append((i1, i2, j1, j2))
    return out


def switch(table, cells):
    """Swap the two symbols of an intercalate: still a Latin square with identity 0."""
    i1, i2, j1, j2 = cells
    rows = [list(row) for row in table]
    x, y = rows[i1][j1], rows[i1][j2]
    rows[i1][j1] = rows[i2][j2] = y
    rows[i1][j2] = rows[i2][j1] = x
    return tuple(map(tuple, rows))


def magma_closure(table, gens):
    """Everything reachable from gens and 0 by products in either order."""
    members = {0, *gens}
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for y in list(members):
            for z in (table[x][y], table[y][x]):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    return members


class TestConstructGroup:
    def test_cyclic_15_order_multiset(self):
        group = construct_group("cyclic:15")
        # independent count: order of c^k is n / gcd(k, n)
        expected = Counter(15 // math.gcd(k, 15) for k in range(15))
        assert Counter(group.element_orders) == expected
        assert expected == Counter({1: 1, 3: 2, 5: 4, 15: 8})

    def test_a_product_needs_two_factors(self):
        with pytest.raises(ValueError, match="^direct_product needs at least two factors$"):
            direct_product(construct_group("cyclic:3"))

    def test_a_product_spec_validates_one_table(self, monkeypatch):
        # the factors' tables are proved by the product's: A x B is a group exactly when A and B are
        seen = []

        def record(rows):
            seen.append(len(rows))
            validate_table(rows)

        monkeypatch.setattr(groups_module, "validate_table", record)
        construct_group("product:cyclic:2,cyclic:2,cyclic:3")
        assert seen == [12]

    def test_a_product_of_groups_is_the_product_spec_group(self, tmp_path):
        path = tmp_path / "c3.table"
        path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
        cases = [
            ((cyclic_group(2), quaternion_group(2)), "product:cyclic:2,quaternion:2"),
            ((load_table_file(path), dihedral_group(3), cyclic_group(2)),
             f"product:table:{path},dihedral:3,cyclic:2"),
        ]
        for factors, spec in cases:
            product, expected = direct_product(*factors), construct_group(spec)
            assert product.table == expected.table, spec
            assert product.element_names == expected.element_names, spec
            assert product.label == expected.label == spec

    @pytest.mark.parametrize("spec", ["dihedral:5", "product:cyclic:3,dihedral:4"])
    def test_a_survey_reads_no_table(self, monkeypatch, spec):
        # the rows a group validated serve every survey layer; only ``table`` converts them
        def refuse(group):
            raise AssertionError(f"{group!r}.table read")

        expected = survey_group(spec, witness=True, oracle_max_order=12).to_dict()
        monkeypatch.setattr(Group, "table", property(refuse))
        with pytest.raises(AssertionError, match="table read"):
            construct_group(spec).table
        assert survey_group(spec, witness=True, oracle_max_order=12).to_dict() == expected

    def test_element_names_must_match_the_order(self):
        with pytest.raises(ValueError, match="^element_names length does not match group order$"):
            Group([[0, 1], [1, 0]], "c2", element_names=["e"])

    def test_trivial_group(self):
        group = construct_group("cyclic:1")
        assert group.order == 1
        assert group.element_orders == (1,)

    def test_quaternion_2_unique_involution(self):
        group = construct_group("quaternion:2")
        assert group.order == 8
        assert sum(1 for o in group.element_orders if o == 2) == 1

    def test_dihedral_order_convention(self):
        assert construct_group("dihedral:3").order == 6
        assert construct_group("dihedral:7").order == 14

    def test_quaternion_order_convention(self):
        assert construct_group("quaternion:3").order == 12

    def test_tables_and_names_match_the_cell_by_cell_references(self):
        # the catalog holds dihedral:3..60 and quaternion:2..30; the sixth spec
        # has nonabelian factors, which the catalog never builds; the last three
        # pass order 256, where the builders give tuple rows instead of bytes
        extra = ["cyclic:255", "dihedral:127", "quaternion:63", "product:cyclic:3,cyclic:75",
                 "product:" + ",".join(["cyclic:2"] * 8), "product:dihedral:3,quaternion:2",
                 "cyclic:257", "dihedral:129", "product:cyclic:3,cyclic:99"]
        catalog = [g for g in catalog_groups_to_120() if not g.label.startswith("table:")]
        assert len(catalog) == 307
        for group in catalog + [construct_group(spec) for spec in extra]:
            table, names = reference_group(group.label)
            assert group.table == tuple(map(tuple, table)), group.label
            assert group.element_names == tuple(names), group.label

    def test_product(self):
        group = construct_group("product:cyclic:3,cyclic:5")
        assert group.order == 15
        assert group.label == "product:cyclic:3,cyclic:5"

    def test_nary_product(self):
        group = construct_group("product:cyclic:2,cyclic:2,cyclic:2")
        assert group.order == 8
        assert all(o in (1, 2) for o in group.element_orders)

    def test_nary_product_is_componentwise(self):
        group = construct_group("product:cyclic:2,cyclic:3,cyclic:4")

        def parts(x):  # mixed radix, first factor most significant
            return (x // 12, x // 4 % 3, x % 4)

        for a in range(24):
            for b in range(24):
                expected = tuple((s + t) % m for s, t, m in zip(parts(a), parts(b), (2, 3, 4)))
                assert parts(group.table[a][b]) == expected, (a, b)
        assert group.element_names[13] == "(c,e,c)"

    def test_label_normalized(self):
        assert construct_group(" cyclic:6 ").label == "cyclic:6"

    @pytest.mark.parametrize(
        "spec",
        ["", "cyclic", "cyclic:", "cyclic:zero", "dihedral:2", "quaternion:1",
         "product:cyclic:3", "product:product:cyclic:2,cyclic:2,cyclic:3", "ring:4",
         # int() reads these as 15, 5 (an Arabic-Indic digit) and 3
         "cyclic:1_5", "cyclic:\u0665", "dihedral:+3",
         # str.strip drops a non-ASCII space
         "cyclic:\u30005", "\u2003cyclic:5", "product:cyclic:2,\u00a0cyclic:2"],
    )
    def test_malformed_specs(self, spec):
        with pytest.raises(GroupSpecError):
            construct_group(spec)

    @pytest.mark.parametrize(
        "spec,expected",
        [("product:cyclic:2,productive:3", "unknown group family 'productive' in spec 'productive:3'"),
         ("product:cyclic:2,products", "malformed group spec 'products'"),
         ("product:cyclic:2,product:cyclic:3,cyclic:5", NESTED),
         ("product:cyclic:2,PRODUCT:cyclic:3,cyclic:5", NESTED),
         ("product:cyclic:2, Product\t:cyclic:3,cyclic:5", NESTED)],
    )
    def test_only_a_product_factor_is_nested(self, spec, expected):
        with pytest.raises(GroupSpecError) as info:
            construct_group(spec)
        assert str(info.value) == expected.format(spec=spec)

    @pytest.mark.parametrize(
        "spec, order",
        [
            ("cyclic:4097", 4097),
            ("dihedral:2049", 4098),
            ("quaternion:1025", 4100),
            ("product:cyclic:64,cyclic:65", 4160),
            ("product:cyclic:2,dihedral:1025,cyclic:1", 4100),
            ("product:cyclic:100000,cyclic:0", 100000),
        ],
    )
    def test_an_order_above_the_limit_is_refused_before_any_table(self, spec, order):
        tracemalloc.start()
        try:
            with pytest.raises(GroupSpecError) as info:
                construct_group(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"{spec!r} has order {order}, above the limit of {MAX_ORDER}"
        assert peak < 100_000

    def test_an_order_at_the_limit_is_built(self, monkeypatch):
        assert MAX_ORDER == 4096
        monkeypatch.setattr(groups_module, "MAX_ORDER", 12)  # a table of order 4096 takes seconds
        for spec in ("cyclic:12", "dihedral:6", "quaternion:3", "product:cyclic:2,cyclic:6"):
            assert construct_group(spec).order == 12
        for spec in ("cyclic:13", "dihedral:7", "quaternion:4", "product:cyclic:2,cyclic:7"):
            with pytest.raises(GroupSpecError, match="above the limit of 12"):
                construct_group(spec)

    def test_negative_parameter_reaches_the_range_check(self):
        with pytest.raises(GroupSpecError, match="order must be >= 1"):
            construct_group("cyclic:-3")

    def test_family_tables_validate(self):
        for spec in ("cyclic:12", "dihedral:5", "quaternion:3",
                     "product:cyclic:2,cyclic:4"):
            validate_table(construct_group(spec).table)


class TestTableFiles:
    def test_roundtrip(self, tmp_path):
        group = construct_group("dihedral:3")
        path = tmp_path / "d3.table"
        lines = [str(group.order)] + [" ".join(map(str, row)) for row in group.table]
        path.write_text("\n".join(lines))
        loaded = construct_group(f"table:{path}")
        assert loaded.table == group.table
        assert loaded.order == 6

    def test_comments_and_blanks_ignored(self):
        group = load_table_text("# tiny\n\n2\n0 1\n1 0\n")
        assert group.order == 2

    def test_not_latin(self):
        with pytest.raises(GroupTableError, match="Latin"):
            load_table_text("2\n0 0\n1 1\n")

    def test_wrong_identity(self):
        # Latin square whose row 0 is not the identity row
        with pytest.raises(GroupTableError, match="identity"):
            load_table_text("2\n1 0\n0 1\n")

    def test_not_associative(self):
        # order-5 loop: Latin square with identity but (1*1)*2 != 1*(1*2)
        text = "5\n0 1 2 3 4\n1 0 3 4 2\n2 3 4 0 1\n3 4 1 2 0\n4 2 0 1 3\n"
        with pytest.raises(GroupTableError, match="associativity"):
            load_table_text(text)

    def test_entries_are_strict_decimal(self):
        # int() reads "+1" as 1 and "+2" as 2
        with pytest.raises(GroupTableError, match="table entries must be integers"):
            load_table_text("2\n0 +1\n1 0")
        with pytest.raises(GroupTableError, match="first value must be the order"):
            load_table_text("+2\n0 1\n1 0")
        with pytest.raises(GroupTableError, match="order must be >= 1, got -2"):
            load_table_text("-2\n0 1\n1 0")

    def test_values_split_on_ascii_whitespace_only(self):
        # str.split splits on the ideographic space, str.splitlines on U+2028
        for text in ("2\n0\u30001\n1 0", "2\n0 1\u20281 0"):
            with pytest.raises(GroupTableError):
                load_table_text(text)
        group = load_table_text("# \u7fa4\u3000\u2028 table\n2\r\n0\t1\r\n 1 0\f")
        assert group.table == ((0, 1), (1, 0))

    def test_bad_shapes(self):
        with pytest.raises(GroupTableError):
            load_table_text("")
        with pytest.raises(GroupTableError):
            load_table_text("2\n0 1\n")
        with pytest.raises(GroupTableError):
            load_table_text("2\n0 7\n1 0\n")


class TestValidator:
    def test_entries_are_not_coerced(self):
        with pytest.raises(GroupTableError, match="range"):
            Group([[0, 1.9], [1.2, 0]], "x")
        with pytest.raises(GroupTableError, match="range"):
            Group([[False, True], [True, False]], "x")  # bool is an int subclass

    def test_greedy_generators_generate_and_are_few(self):
        for spec in generate_catalog(48):
            table = construct_group(spec).table
            gens = _generating_set(table)
            assert magma_closure(table, gens) == set(range(len(table))), spec
            assert 2 ** len(gens) <= len(table), spec
            if spec.startswith("cyclic:") and len(table) > 1:
                assert gens == [1], spec

    def test_greedy_generators_match_the_full_closure_walk(self):
        tables = [group.table for group in catalog_groups_to_120()]
        rng = random.Random(20)
        for _ in range(1500):
            # an identity at 0 and any other entries: groups, loops and non-Latin magmas
            n = rng.randint(1, 9)
            rows = [list(range(n))] + [[i] + rng.choices(range(n), k=n - 1) for i in range(1, n)]
            tables.append(tuple(map(tuple, rows)))
        tables += [switch(table, cells) for table in SMALL_TABLES for cells in intercalates(table)[:3]]
        for table in tables:
            assert _generating_set(table) == reference_generating_set(table)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_reference_on_perturbed_tables(self, data):
        table = data.draw(st.sampled_from(SMALL_TABLES))
        n = len(table)
        cells = intercalates(table)
        case = data.draw(st.sampled_from(("switch", "edit", "latin-rows")))
        if case == "switch" and cells:
            table = switch(table, data.draw(st.sampled_from(cells)))
        elif case == "latin-rows":
            # Latin rows: a column fault, if any, must outrank every later failure
            rows = [list(data.draw(st.permutations(range(n)))) for _ in range(n)]
            if data.draw(st.booleans()):
                rows[0] = list(range(n))
            if data.draw(st.booleans()):
                for i, row in enumerate(rows):
                    j = row.index(i)
                    row[0], row[j] = row[j], row[0]
            table = tuple(map(tuple, rows))
        else:
            rows = [list(row) for row in table]
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            rows[i][j] = data.draw(st.integers(0, n - 1))
            table = tuple(map(tuple, rows))
        assert_same_message_as_reference(table)

    def test_a_column_fault_outranks_a_broken_right_identity(self):
        # Latin rows and a left identity; column 0 holds 2 twice, and 1 * 0 = 2
        table = ((0, 1, 2), (2, 0, 1), (2, 0, 1))
        expected = "column 0 is not a permutation (Latin square violated)"
        assert message(validate_table, table) == message(reference_validate_table, table) == expected

    @pytest.mark.parametrize(
        "table, expected",
        [
            pytest.param((), "empty multiplication table", id="empty"),
            pytest.param(((0, 1), (1,)), "row 1 has length 1, expected 2", id="ragged"),
            pytest.param(((0, 1), (1, 2)), "entry 2 in row 1 out of range 0..1", id="entry-n"),
            # bytes rows: their type proves 0..255, and the bound n is still checked
            pytest.param((b"\x00\x01", b"\x01\x02"), "entry 2 in row 1 out of range 0..1", id="bytes-entry-n"),
            pytest.param((b"\x00\x01", b"\x01"), "row 1 has length 1, expected 2", id="bytes-ragged"),
            pytest.param(
                (b"\x00\x01\x02", b"\x01\x02\x00", (2, 0, 1.0)),
                "entry 1.0 in row 2 out of range 0..2",
                id="bytes-then-float",
            ),
            pytest.param(
                ((0, 1, 2), (1, 2, 0), (2, 0, -1)), "entry -1 in row 2 out of range 0..2", id="entry-neg"
            ),
            # Latin rows and columns, row 0 the identity and column 0 not
            pytest.param(
                ((0, 1, 2), (2, 0, 1), (1, 2, 0)), "element 0 is not a right identity", id="right-identity"
            ),
            # row 1 repeats 1 and row 2 holds 5: the row fault comes first
            pytest.param(
                ((0, 1, 2), (1, 1, 0), (2, 0, 5)),
                "row 1 is not a permutation (Latin square violated)",
                id="row-before-range",
            ),
            # column 0 repeats 0, but row 2's range fault comes first: no column is read
            pytest.param(
                ((0, 1, 2), (0, 1, 2), (2, 0, 5)),
                "entry 5 in row 2 out of range 0..2",
                id="range-before-columns",
            ),
            # Latin rows, an identity at 0 both ways, columns 2 and 3 repeat a value
            pytest.param(
                ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 1, 0), (3, 2, 1, 0)),
                "column 2 is not a permutation (Latin square violated)",
                id="column-before-axioms",
            ),
            # a monoid {e, z} with z * z = z: identity and associativity pass, row 1 lacks 0
            pytest.param(
                ((0, 1), (1, 1)), "row 1 is not a permutation (Latin square violated)", id="row-without-0"
            ),
        ],
    )
    def test_messages_and_their_precedence(self, table, expected):
        assert message(validate_table, table) == expected
        assert message(reference_validate_table, table) == expected

    def test_an_identity_away_from_0_is_refused(self):
        # cyclic:5 with elements 0 and 1 swapped: Latin and associative, identity at 1
        swap = [1, 0, 2, 3, 4]
        table = [[None] * 5 for _ in range(5)]
        for i, row in enumerate(construct_group("cyclic:5").table):
            for j, x in enumerate(row):
                table[swap[i]][swap[j]] = swap[x]
        table = tuple(map(tuple, table))
        assert table[1] == tuple(range(5)) and all(row[1] == i for i, row in enumerate(table))
        assert message(validate_table, table) == "element 0 is not a left identity"
        assert message(reference_validate_table, table) == "element 0 is not a left identity"

    @pytest.mark.parametrize("spec", ["cyclic:256", "cyclic:257"])
    def test_orders_either_side_of_the_byte_rows_are_accepted(self, spec):
        table = construct_group(spec).table
        assert message(validate_table, table) is None

    @pytest.mark.parametrize(
        "spec, row_type",
        [
            ("cyclic:256", bytes),
            ("dihedral:128", bytes),
            ("quaternion:64", bytes),
            ("product:" + ",".join(["cyclic:2"] * 8), bytes),
            ("cyclic:257", tuple),
            ("dihedral:129", tuple),
            ("quaternion:65", tuple),
            ("product:cyclic:3,cyclic:99", tuple),
        ],
    )
    def test_the_builders_hand_the_validator_byte_rows_up_to_order_256(self, monkeypatch, spec, row_type):
        seen = []

        def record(rows):
            seen.append({type(row) for row in rows})
            validate_table(rows)

        monkeypatch.setattr(groups_module, "validate_table", record)
        construct_group(spec)
        assert seen[-1] == {row_type}

    @pytest.mark.parametrize(
        "spec, cells",
        [
            pytest.param("product:" + ",".join(["cyclic:2"] * 8), (1, 2, 1, 2), id="order-256"),
            pytest.param("dihedral:129", (1, 129, 1, 256), id="order-258"),
        ],
    )
    def test_associativity_faults_either_side_of_the_byte_rows(self, spec, cells):
        table = switch(construct_group(spec).table, cells)
        failures = [
            (a, b)
            for b in _generating_set(table)
            for a in range(len(table))
            if [table[a][x] for x in table[b]] != list(table[table[a][b]])
        ]
        assert failures[0] == (1, 1)
        assert message(validate_table, table) == "associativity fails at a=1, b=1"

    def test_integral_floats_are_not_coerced(self):
        # {0, 1.0} == {0, 1}: a check on the set of a row's values would accept this
        with pytest.raises(GroupTableError, match="range"):
            Group([[0, 1.0], [1.0, 0]], "x")

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_lists_and_tuples_get_one_verdict(self, data):
        table = data.draw(st.sampled_from(SMALL_TABLES))
        if data.draw(st.booleans()):
            n = len(table)
            rows = [list(row) for row in table]
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            # entries n..255 reach the bytes rows' bound check
            rows[i][j] = data.draw(st.integers(0, 255))
            table = tuple(map(tuple, rows))
        expected = message(validate_table, table)
        assert message(validate_table, [list(row) for row in table]) == expected
        assert message(validate_table, list(table)) == expected
        assert message(validate_table, tuple(map(list, table))) == expected
        assert message(validate_table, tuple(map(bytes, table))) == expected

    @pytest.mark.parametrize("spec", ["quaternion:6", "product:cyclic:2,dihedral:4", "cyclic:256"])
    def test_bytes_and_tuple_rows_give_one_group(self, spec):
        rows = construct_group(spec).table
        from_bytes, from_tuples = Group(list(map(bytes, rows)), spec), Group(rows, spec)
        assert from_bytes.table == from_tuples.table == rows
        for group in (from_bytes, from_tuples):
            assert type(group.table) is tuple and group.table is group.table
            assert all(type(row) is tuple for row in group.table)
            assert {type(x) for row in group.table for x in row} == {int}
        assert from_bytes.element_orders == from_tuples.element_orders
        assert all(from_bytes.powers_of(g) == from_tuples.powers_of(g) for g in range(len(rows)))

    def test_lists_and_tuples_get_one_verdict_on_switched_tables(self):
        for table in SMALL_TABLES:
            for cells in intercalates(table)[:4]:
                switched = switch(table, cells)
                expected = message(validate_table, switched)
                assert message(validate_table, [list(row) for row in switched]) == expected

    def test_intercalate_switches_include_nonassociative_loops(self):
        seen = set()
        for table in SMALL_TABLES:
            for cells in intercalates(table):
                switched = switch(table, cells)
                assert_same_message_as_reference(switched)
                seen.add(str(message(reference_validate_table, switched)).split()[0])
        assert "associativity" in seen


class TestQueries:
    def test_identity_order(self):
        group = construct_group("dihedral:4")
        assert group.element_orders[0] == 1

    def test_cyclic_15_element(self):
        group = construct_group("cyclic:15")
        assert group.element_orders[3] == 5

    def test_quaternion_involution(self):
        group = construct_group("quaternion:2")
        involutions = [g for g in range(8) if group.element_orders[g] == 2]
        assert len(involutions) == 1

    def test_order_out_of_range(self):
        group = construct_group("cyclic:3")
        with pytest.raises(IndexError):
            group.powers_of(3)

    def test_is_power_of_examples(self):
        group = construct_group("cyclic:15")
        assert 10 in group.powers_of(5)  # c^10 = (c^5)^2
        assert 3 not in group.powers_of(5)  # <c^5> = {e, c^5, c^10}
        assert group.powers_of(5) == frozenset({0, 5, 10})
        for g in range(group.order):
            assert 0 in group.powers_of(g)  # identity is a power of everything

    def test_powers_count_matches_order(self):
        for spec in ("cyclic:12", "dihedral:5", "quaternion:3", "product:cyclic:2,cyclic:6"):
            group = construct_group(spec)
            for g in range(group.order):
                assert len(group.powers_of(g)) == group.element_orders[g]
                powers = {a for a in range(group.order) if brute_is_power(group, a, g)}
                assert group.powers_of(g) == powers

    def test_closures_match_reference(self):
        for group in catalog_groups_to_120():
            orders, powers = reference_closures(group)
            assert group.element_orders == orders, group.label
            for g in range(group.order):
                assert group.powers_of(g) == powers[g], (group.label, g)

    def test_one_frozenset_per_cyclic_subgroup(self):
        for spec in ("cyclic:60", "dihedral:12", "quaternion:6", "product:cyclic:2,cyclic:6"):
            group = construct_group(spec)
            subgroups = {group.powers_of(g) for g in range(group.order)}
            assert len({id(group.powers_of(g)) for g in range(group.order)}) == len(subgroups)

    def test_is_cyclic_cyclic_groups(self):
        for n in range(1, 65):
            assert is_cyclic(construct_group(f"cyclic:{n}"))

    def test_is_cyclic_products_gcd_rule(self):
        for a in range(2, 13):
            for b in range(2, 13):
                group = construct_group(f"product:cyclic:{a},cyclic:{b}")
                assert is_cyclic(group) == (math.gcd(a, b) == 1), (a, b)

    def test_product_coprime_has_full_order_element(self):
        group = construct_group("product:cyclic:3,cyclic:5")
        assert 15 in group.element_orders

    def test_product_3_3_all_orders_divide_3(self):
        group = construct_group("product:cyclic:3,cyclic:3")
        assert set(group.element_orders) == {1, 3}
        assert not is_cyclic(group)


class TestArithmetic:
    @pytest.mark.parametrize(
        "n,expected",
        [(15, ((3, 1), (5, 1))), (27, ((3, 3),)), (1, ()), (2, ((2, 1),)), (360, ((2, 3), (3, 2), (5, 1)))],
    )
    def test_factorize(self, n, expected):
        assert factorize(n) == expected

    def test_prime_power_predicate(self):
        # a prime power is one (prime, exponent) pair; 1 is the empty product
        assert [len(factorize(n)) == 1 for n in (27, 2, 1, 15)] == [True, True, False, False]

    @given(st.integers(min_value=1, max_value=100_000))
    @settings(max_examples=200, deadline=None)
    def test_factorize_reconstructs(self, n):
        f = factorize(n)
        assert type(f) is tuple
        assert math.prod(p**e for p, e in f) == n
        primes = [p for p, _ in f]
        assert primes == sorted(set(primes))

    @pytest.mark.parametrize("n,expected", [(15, 8), (1, 1), (9, 6)])
    def test_euler_phi_examples(self, n, expected):
        assert euler_phi(n) == expected

    def test_euler_phi_brute_force_all_small(self):
        for n in range(1, 1001):
            assert euler_phi(n) == brute_phi(n), n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            euler_phi(0)
