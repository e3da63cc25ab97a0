"""CLI verbs, file round trips, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import powerchroma
from powerchroma import cli as cli_module
from powerchroma.cli import main
from conftest import nonabelian21_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_build_json(self, capsys):
        code, out, _ = run(capsys, "build", "cyclic:15")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 15
        assert len(payload["edges"]) == 97

    def test_build_with_dot(self, capsys, tmp_path):
        dot = tmp_path / "g.dot"
        out_json = tmp_path / "g.json"
        code, _, _ = run(capsys, "build", "cyclic:5", "--dot", str(dot), "--out", str(out_json))
        assert code == 0
        assert dot.read_text().startswith("graph powergraph {")
        assert json.loads(out_json.read_text())["n"] == 5

    def test_bad_spec(self, capsys):
        code, _, err = run(capsys, "build", "cyclic:banana")
        assert code == 1
        assert "error" in err


class TestAnalyzeClassify:
    def test_analyze(self, capsys):
        code, out, _ = run(capsys, "analyze", "cyclic:15")
        assert code == 0
        payload = json.loads(out)
        assert payload["overfull"] is False
        assert payload["deficiency"] == 8
        assert payload["budget"] == 6

    def test_classify_class2(self, capsys):
        code, out, _ = run(capsys, "classify", "cyclic:27")
        assert code == 0
        assert json.loads(out)["class"] == "class2"

    @pytest.mark.parametrize("spec", ["cyclic:1_5", "cyclic:\u0665"])
    def test_classify_refuses_a_coerced_parameter(self, capsys, spec):
        # int() reads "1_5" as 15 and the Arabic-Indic digit five as 5
        code, out, err = run(capsys, "classify", spec)
        assert (code, out) == (1, "")
        assert err == f"error: expected an integer parameter in {spec!r}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "cyclic:4097"),
            ("build", "product:cyclic:64,cyclic:65"),
            ("survey", "--max-order", "3", "--extra", "dihedral:2049"),
        ],
    )
    def test_an_order_above_the_limit_is_one_line_and_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "above the limit of 4096" in err
        assert err.count("\n") == 1

    def test_classify_table_spec(self, capsys, tmp_path):
        path = tmp_path / "g21.table"
        path.write_text(nonabelian21_text())
        code, out, _ = run(capsys, "classify", f"table:{path}")
        assert code == 0
        assert json.loads(out)["class"] == "class1"


class TestColor:
    def test_color_c15(self, capsys, tmp_path):
        csv_path = tmp_path / "c15.csv"
        json_path = tmp_path / "c15.json"
        code, out, _ = run(
            capsys, "color", "cyclic:15", "--csv", str(csv_path), "--json", str(json_path)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["class"] == "class1"
        assert payload["colors_used"] == 14
        assert payload["verified"] is True
        assert csv_path.read_text().startswith("1,2,3")
        assert json.loads(json_path.read_text())["palette"] == 14

    def test_color_class2_certificate(self, capsys):
        code, out, _ = run(capsys, "color", "cyclic:9")
        assert code == 0
        payload = json.loads(out)
        assert payload["class"] == "class2"
        assert payload["colors_used"] == 9
        assert payload["overfull_certificate"]["edge_count"] == 36

    def test_color_odd_class1_graph_picks_rhee(self, capsys):
        code, out, _ = run(capsys, "color", "cyclic:15")
        assert code == 0
        assert json.loads(out)["strategy"] == "rhee"

    def test_color_indeterminate_when_fallback_spends_its_budget(self, capsys, monkeypatch):
        import powerchroma.exchange as exchange_module
        from powerchroma import ExchangeFailure, OracleResult

        def stuck(target):
            raise ExchangeFailure([], [], {})

        monkeypatch.setattr(exchange_module, "exchange_coloring", stuck)
        monkeypatch.setattr(
            exchange_module.oracle, "exact_chromatic_index", lambda graph: OracleResult(None, None, 0)
        )
        code, out, _ = run(capsys, "color", "cyclic:15")
        assert code == 1
        payload = json.loads(out)
        assert (payload["class"], payload["colors_used"], payload["max_degree"]) == (
            "indeterminate", 15, 14
        )
        assert payload["strategy"] == "exact"
        assert payload["verified"] is True
        assert payload["overfull_certificate"] is None


class TestVerify:
    def test_verify_good_files(self, capsys, tmp_path):
        graph_path = tmp_path / "g.json"
        coloring_path = tmp_path / "c.csv"
        run(capsys, "build", "cyclic:15", "--out", str(graph_path))
        run(capsys, "color", "cyclic:15", "--csv", str(coloring_path), "--out", str(tmp_path / "s.json"))
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph_path), "--coloring", str(coloring_path)
        )
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_verify_rejects_corrupted(self, capsys, tmp_path):
        graph_path = tmp_path / "g.json"
        coloring_path = tmp_path / "c.csv"
        run(capsys, "build", "cyclic:5", "--out", str(graph_path))
        coloring_path.write_text('1,2\n"(1, 2)","(1, 3)"\n"(2, 3)",\n')
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph_path), "--coloring", str(coloring_path)
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert "conflict" in payload["detail"] or "uncolored" in payload["detail"]

    def test_verify_json_coloring(self, capsys, tmp_path):
        graph_path = tmp_path / "g.json"
        coloring_path = tmp_path / "c.json"
        run(capsys, "build", "cyclic:9", "--out", str(graph_path))
        run(capsys, "color", "cyclic:9", "--json", str(coloring_path), "--out", str(tmp_path / "s.json"))
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph_path), "--coloring", str(coloring_path)
        )
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_verify_json_coloring_with_a_huge_palette(self, capsys, tmp_path):
        # the palette is read from the file; the verifier must not allocate by it
        graph_path = tmp_path / "g.json"
        coloring_path = tmp_path / "c.json"
        run(capsys, "build", "cyclic:9", "--out", str(graph_path))
        run(capsys, "color", "cyclic:9", "--json", str(coloring_path), "--out", str(tmp_path / "s.json"))
        payload = json.loads(coloring_path.read_text())
        payload["palette"] = 10**12
        coloring_path.write_text(json.dumps(payload))
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph_path), "--coloring", str(coloring_path)
        )
        assert code == 0
        result = json.loads(out)
        assert (result["valid"], result["palette"], result["colored"]) == (True, 10**12, 36)

    @pytest.mark.parametrize("payload", ["c15", "[1, 2]", '{"n": 21, "edges": []}'])
    def test_verify_bad_json_coloring_is_one_line_error(self, capsys, tmp_path, payload):
        graph_path = tmp_path / "g.json"
        coloring_path = tmp_path / "c.json"
        run(capsys, "build", "cyclic:21", "--out", str(graph_path))
        if payload == "c15":  # a valid coloring of another order: n mismatch, not 109 uncolored
            run(capsys, "color", "cyclic:15", "--json", str(coloring_path), "--out", str(tmp_path / "s.json"))
        else:
            coloring_path.write_text(payload)
        code, out, err = run(
            capsys, "verify", "--graph", str(graph_path), "--coloring", str(coloring_path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        if payload == "c15":
            assert "n=15" in err and "n=21" in err

    def test_verify_malformed_graph_is_one_line_error(self, capsys, tmp_path):
        graph_path = tmp_path / "g.json"
        coloring_path = tmp_path / "c.csv"
        graph_path.write_text('{"n": 3}')
        coloring_path.write_text("1,2\n")
        code, out, err = run(
            capsys, "verify", "--graph", str(graph_path), "--coloring", str(coloring_path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_verify_oversized_graph_n_is_one_line_error(self, capsys, tmp_path):
        graph_path = tmp_path / "g.json"
        coloring_path = tmp_path / "c.csv"
        graph_path.write_text('{"n": 100000000000000000000, "edges": []}')
        coloring_path.write_text("1,2\n")
        code, out, err = run(
            capsys, "verify", "--graph", str(graph_path), "--coloring", str(coloring_path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith('error: graph JSON "n" must be at most ')
        assert err.count("\n") == 1

    def test_verify_overlong_csv_cell_is_one_line_error(self, capsys, tmp_path):
        graph_path = tmp_path / "g.json"
        coloring_path = tmp_path / "big.csv"
        run(capsys, "build", "cyclic:5", "--out", str(graph_path))
        coloring_path.write_text("1\n" + "1" * 131_073 + "\n")  # past csv's field limit
        code, out, err = run(
            capsys, "verify", "--graph", str(graph_path), "--coloring", str(coloring_path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_cyclic_255_round_trip(self, capsys, tmp_path):
        graph_path, csv_path, json_path = (tmp_path / name for name in ("g.json", "c.csv", "c.json"))
        assert run(capsys, "build", "cyclic:255", "--out", str(graph_path))[0] == 0
        code, out, _ = run(
            capsys, "color", "cyclic:255", "--csv", str(csv_path), "--json", str(json_path)
        )
        assert code == 0 and json.loads(out)["verified"] is True
        for path in (csv_path, json_path):
            code, out, _ = run(capsys, "verify", "--graph", str(graph_path), "--coloring", str(path))
            assert code == 0
            assert json.loads(out)["valid"] is True


class TestSurvey:
    def test_survey_consistent(self, capsys, tmp_path):
        out_path = tmp_path / "survey.json"
        code, _, _ = run(
            capsys, "survey", "--max-order", "12", "--witness",
            "--oracle-max-order", "8", "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["mismatches"] == []
        assert payload["summary"]["overfull_groups"] == ["cyclic:3", "cyclic:5", "cyclic:7", "cyclic:9", "cyclic:11"]

    def test_survey_with_extra_table(self, capsys, tmp_path):
        path = tmp_path / "g21.table"
        path.write_text(nonabelian21_text())
        code, out, _ = run(
            capsys, "survey", "--max-order", "3", "--extra", f"table:{path}"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["group_count"] == 4

    def test_survey_timing_flag(self, capsys):
        code, out, _ = run(capsys, "survey", "--max-order", "3", "--timing")
        assert code == 0
        assert "elapsed_ms" in out

    def test_survey_deterministic_without_timing(self, capsys):
        _, first, _ = run(capsys, "survey", "--max-order", "10", "--witness")
        _, second, _ = run(capsys, "survey", "--max-order", "10", "--witness")
        assert first == second


class TestFlagErrors:
    def test_max_order_is_refused_just_above_the_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "MAX_ORDER", 3)  # a survey to 4096 would take hours
        with pytest.raises(SystemExit) as info:
            main(["survey", "--max-order", "4"])
        assert info.value.code == 1
        assert capsys.readouterr().err == "error: argument --max-order: must be at most 3, got '4'\n"
        assert run(capsys, "survey", "--max-order", "3")[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("survey", "--max-order", "abc"),
            ("color", "cyclic:15", "--seed", "3"),
            ("survey", "--max-order", "3", "--oracle-max-order", "-4"),
            ("survey", "--max-order", "1_0"),
            ("survey", "--max-order", "3", "--oracle-max-order", "1_0"),
            ("color", "cyclic:15", "--strategy", "rhee"),
            ("survey", "--max-order", "4097"),
            ("survey", "--max-order", "99999999999999999999"),
        ],
    )
    def test_one_line_and_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        captured = capsys.readouterr()
        assert info.value.code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["survey", "--help"])
        assert info.value.code == 0
        assert "--max-order" in capsys.readouterr().out


class TestModuleEntry:
    def test_python_m_powerchroma(self):
        src = str(Path(powerchroma.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-m", "powerchroma", "classify", "cyclic:9"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["class"] == "class2"
