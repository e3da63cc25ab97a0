"""Catalog generation and the survey runner."""

import pytest

from powerchroma import Graph, build_power_graph, construct_group, generate_catalog, run_survey
from powerchroma.toolkit import _check_report, survey_group

from conftest import nonabelian21_text, reference_report_dict


class TestCatalog:
    def test_max_order_8(self):
        catalog = generate_catalog(8)
        specs = set(catalog)
        assert {f"cyclic:{n}" for n in range(1, 9)} <= specs
        assert "product:cyclic:2,cyclic:2" in specs
        assert "product:cyclic:2,cyclic:4" in specs
        assert "product:cyclic:2,cyclic:2,cyclic:2" in specs
        assert "dihedral:3" in specs and "dihedral:4" in specs
        assert "quaternion:2" in specs
        assert len(specs) == 8 + 3 + 2 + 1

    def test_max_order_1(self):
        assert list(generate_catalog(1)) == ["cyclic:1"]

    def test_max_order_9_additions(self):
        extra = set(generate_catalog(9)) - set(generate_catalog(8))
        assert extra == {"cyclic:9", "product:cyclic:3,cyclic:3"}

    def test_product_entries_are_invariant_factor_chains(self):
        for spec in generate_catalog(48):
            if not spec.startswith("product:"):
                continue
            factors = [int(p.split(":")[1]) for p in spec[len("product:"):].split(",")]
            assert len(factors) >= 2
            assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1)), spec
            # divisibility chains with d1 >= 2 are never cyclic, so no duplicates
            assert factors[0] >= 2

    def test_sorted_and_deterministic(self):
        a = generate_catalog(24)
        b = generate_catalog(24)
        assert a.specs == b.specs
        orders = []
        from powerchroma import construct_group

        for spec in a:
            orders.append(construct_group(spec).order)
        assert orders == sorted(orders)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            generate_catalog(0)


class TestSurvey:
    def test_overfull_set_up_to_15(self):
        result = run_survey(generate_catalog(15))
        assert result.overfull_groups == [
            "cyclic:3", "cyclic:5", "cyclic:7", "cyclic:9", "cyclic:11", "cyclic:13",
        ]
        assert result.class2_groups == result.overfull_groups
        assert result.consistent

    def test_max_order_2_all_class1(self):
        result = run_survey(generate_catalog(2))
        assert result.overfull_groups == []
        assert all(r.predicted_class == "class1" for r in result.reports)

    def test_witness_and_oracle_modes(self):
        result = run_survey(generate_catalog(15), witness=True, oracle_max_order=10)
        assert result.consistent, result.mismatches
        for report in result.reports:
            assert report.witness is not None and report.witness.verified
            if report.order <= 10:
                assert report.oracle is not None and report.oracle.agrees

    def test_oracle_concordance_to_order_20(self):
        result = run_survey(generate_catalog(20), witness=True, oracle_max_order=20)
        assert result.mismatches == []
        for report in result.reports:
            assert report.oracle is not None and not report.oracle.budget_exhausted, report.spec
            assert report.oracle.agrees, report.spec
        # 2,662 nodes over the 43 groups; the degree-sum order spent its
        # 10^7-node budget on each of four
        assert sum(report.oracle.nodes_explored for report in result.reports) < 5_000

    def test_byte_identical_output(self):
        first = run_survey(generate_catalog(12), witness=True, oracle_max_order=8)
        second = run_survey(generate_catalog(12), witness=True, oracle_max_order=8)
        assert first.to_json() == second.to_json()

    def test_timing_only_on_request(self):
        result = run_survey(generate_catalog(4))
        assert "elapsed_ms" not in result.to_dict()["reports"][0]
        assert "elapsed_ms" in result.to_dict(include_timing=True)["reports"][0]

    def test_to_dict_matches_reference(self):
        result = run_survey(generate_catalog(30), witness=True, oracle_max_order=8)
        assert all(r.witness is not None for r in result.reports)
        assert any(r.oracle is not None for r in result.reports)
        for report in result.reports:
            assert report.to_dict() == reference_report_dict(report), report.spec
            assert report.to_dict(include_timing=True) == reference_report_dict(
                report, include_timing=True
            ), report.spec

    def test_extra_table_spec(self, tmp_path):
        path = tmp_path / "order21.table"
        path.write_text(nonabelian21_text())
        result = run_survey(generate_catalog(4), extra_specs=(f"table:{path}",))
        assert result.consistent
        table_report = [r for r in result.reports if r.spec.startswith("table:")]
        assert len(table_report) == 1
        assert table_report[0].order == 21
        assert not table_report[0].overfull
        assert table_report[0].predicted_class == "class1"

    def test_survey_group_fields(self):
        report = survey_group("cyclic:15", witness=True, oracle_max_order=0)
        assert (report.order, report.edge_count, report.max_degree) == (15, 97, 14)
        assert (report.deficiency, report.budget, report.overfull) == (8, 6, False)
        assert report.is_cyclic and report.odd and not report.prime_power
        assert report.witness.colors_used == 14
        assert report.witness.strategy == "rhee"

    def test_survey_group_builds_the_graph_once(self, monkeypatch):
        import powerchroma.exchange as exchange_module
        import powerchroma.toolkit as toolkit_module

        calls = []
        build = toolkit_module.build_power_graph

        def counting_build(group):
            calls.append(group.label)
            return build(group)

        monkeypatch.setattr(toolkit_module, "build_power_graph", counting_build)
        monkeypatch.setattr(exchange_module, "build_power_graph", counting_build)
        report = survey_group("cyclic:15", witness=True)
        assert report.witness.verified
        assert calls == ["cyclic:15"]

    def test_classify_survey_builds_one_graph_per_group(self, monkeypatch):
        # every Graph is filled through _adopt_bits; the core check builds none
        calls = []
        adopt = Graph._adopt_bits

        def counting_adopt(graph, bits, labels):
            calls.append(len(bits))
            adopt(graph, bits, labels)

        monkeypatch.setattr(Graph, "_adopt_bits", counting_adopt)
        catalog = generate_catalog(24)
        result = run_survey(catalog)
        assert len(result.reports) == len(catalog)
        assert len(calls) == len(catalog)

    def test_classify_survey_decodes_no_row(self, monkeypatch):
        # degrees, the core and the report all read the bitmasks directly
        import powerchroma.powergraph as powergraph_module

        rows = []
        decode = powergraph_module.compress  # selects a row's neighbours from its bits

        def counting_decode(data, selectors):
            rows.append(data)
            return decode(data, selectors)

        monkeypatch.setattr(powergraph_module, "compress", counting_decode)
        assert run_survey(generate_catalog(24)).consistent
        assert rows == []
        build_power_graph(construct_group("cyclic:3")).edges()
        assert len(rows) == 3  # one decode per row of cyclic:3: the hook sees them

    def test_a_dropped_edge_is_a_mismatch(self, monkeypatch):
        import powerchroma.toolkit as toolkit_module

        build = toolkit_module.build_power_graph

        def drop_one_edge(group):
            graph = build(group)
            return Graph(graph.n, graph.edges()[1:], graph.labels)

        monkeypatch.setattr(toolkit_module, "build_power_graph", drop_one_edge)
        result = run_survey(generate_catalog(24))
        # cyclic:1 has no edge to drop; every other group is one edge short
        assert [p for p in result.mismatches if "element orders" in p] == [
            f"{r.spec}: {r.edge_count} edges, element orders give {r.edge_count + 1}"
            for r in result.reports
            if r.order > 1
        ]

    def test_survey_group_reports_once(self, monkeypatch):
        import powerchroma.exchange as exchange_module
        import powerchroma.toolkit as toolkit_module

        calls = []
        report = toolkit_module.deficiency_report

        def counting_report(graph):
            calls.append(graph.n)
            return report(graph)

        monkeypatch.setattr(toolkit_module, "deficiency_report", counting_report)
        monkeypatch.setattr(exchange_module, "deficiency_report", counting_report)
        result = survey_group("cyclic:9", witness=True)
        assert result.witness.class_label == "class2"
        assert calls == [9]

    def test_mismatch_detection(self):
        report = survey_group("cyclic:9", witness=True)
        assert _check_report(report) == []
        report.predicted_class = "class1"  # fabricate an inconsistency
        problems = _check_report(report)
        assert problems and any("does not track" in p for p in problems)

    def test_an_unverified_witness_is_a_problem(self):
        report = survey_group("cyclic:9", witness=True)
        report.witness.verified = False
        assert _check_report(report) == ["cyclic:9: witness coloring failed verification"]

    def test_an_exhausted_search_is_a_problem(self):
        report = survey_group("cyclic:6", oracle_max_order=6)
        assert _check_report(report) == []
        report.oracle.budget_exhausted = True
        assert _check_report(report) == ["cyclic:6: exact search exhausted its budget"]
        report.oracle.budget_exhausted, report.oracle.agrees = False, False
        assert _check_report(report) == [
            "cyclic:6: exact chromatic index 5 disagrees with predicted class1"
        ]
