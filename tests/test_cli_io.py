"""Tests for JSON I/O and the command-line interface."""

import json

import pytest

from repro.cq import Structure, parse_query
from repro.cli import main
from repro.io import (
    dump_query,
    dump_structure,
    load_query,
    load_structure,
    structure_from_dict,
    structure_to_dict,
)


class TestIo:
    def test_structure_round_trip(self, tmp_path):
        structure = Structure({"E": [(1, 2), (2, 3)]}, domain=[1, 2, 3, 9])
        path = tmp_path / "db.json"
        dump_structure(structure, path)
        assert load_structure(path) == structure

    def test_structure_dict_shape(self):
        data = structure_to_dict(Structure({"E": [(1, 2)]}))
        assert data["relations"]["E"] == [[1, 2]]
        assert data["domain"] == [1, 2]

    def test_missing_relations_key(self):
        with pytest.raises(ValueError):
            structure_from_dict({})

    def test_query_round_trip(self, tmp_path):
        query = parse_query("Q(x) :- E(x, y), E(y, z)")
        path = tmp_path / "query.txt"
        dump_query(query, path)
        assert load_query(path) == query


class TestCli:
    def test_approximate(self, capsys):
        assert main(["approximate", "Q() :- E(x,y), E(y,z), E(z,x)"]) == 0
        out = capsys.readouterr().out
        assert "E(" in out

    def test_approximate_all(self, capsys):
        assert main(
            ["approximate", "Q() :- E(x,y), E(y,z), E(z,x)", "--all", "--cls", "TW1"]
        ) == 0
        assert capsys.readouterr().out.strip()

    def test_approximate_hypergraph_class(self, capsys):
        assert main(
            ["approximate", "Q() :- R(x,u,y), R(y,v,z), R(z,w,x)", "--cls", "AC"]
        ) == 0

    def test_classify(self, capsys):
        assert main(["classify", "Q() :- E(x,y), E(y,z), E(z,x)"]) == 0
        assert "not bipartite" in capsys.readouterr().out

    def test_minimize(self, capsys):
        assert main(["minimize", "Q() :- E(x,y), E(x,z)"]) == 0
        assert capsys.readouterr().out.count("E(") == 1

    def test_width(self, capsys):
        assert main(["width", "Q() :- R(x,y,z), R(z,u,w)"]) == 0
        out = capsys.readouterr().out
        assert "treewidth" in out and "acyclic" in out

    def test_contains_exit_codes(self):
        assert main(["contains", "Q() :- E(x,y), E(y,z)", "Q() :- E(x,y)"]) == 0
        assert main(["contains", "Q() :- E(x,y)", "Q() :- E(x,y), E(y,z)"]) == 1

    def test_evaluate(self, tmp_path, capsys):
        db = {"relations": {"E": [[1, 2], [2, 3]]}}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(db))
        assert main(["evaluate", "Q(x, z) :- E(x,y), E(y,z)", "--db", str(path)]) == 0
        assert "1\t3" in capsys.readouterr().out

    def test_evaluate_boolean(self, tmp_path, capsys):
        db = {"relations": {"E": [[1, 2]]}}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(db))
        assert main(["evaluate", "Q() :- E(x,y)", "--db", str(path)]) == 0
        assert "true" in capsys.readouterr().out

    def test_evaluate_engines_agree(self, tmp_path, capsys):
        db = {"relations": {"E": [[1, 2], [2, 3], [3, 1], [2, 4]]}}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(db))
        query = "Q(x, z) :- E(x,y), E(y,z)"
        outs = []
        for engine in ("columnar", "tuple"):
            assert main(
                ["evaluate", query, "--db", str(path), "--engine", engine]
            ) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_evaluate_stats_on_stderr(self, tmp_path, capsys):
        db = {"relations": {"E": [[1, 2], [2, 3]]}}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(db))
        assert main(
            ["evaluate", "Q(x) :- E(x,y)", "--db", str(path), "--stats"]
        ) == 0
        captured = capsys.readouterr()
        assert "evaluation stats" in captured.err
        assert "op:scan" in captured.err
        assert "op:" not in captured.out

    def test_evaluate_json_payload(self, tmp_path, capsys):
        db = {"relations": {"E": [[1, 2], [2, 3]]}}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(db))
        assert main(
            [
                "evaluate",
                "Q(x, z) :- E(x,y), E(y,z)",
                "--db",
                str(path),
                "--engine",
                "columnar",
                "--stats",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "columnar"
        assert payload["answer_count"] == 1
        assert payload["answers"] == [[1, 3]]
        assert payload["stats"]["tuples_scanned"] > 0
        assert "scan" in payload["stats"]["operators"]
        assert payload["stats"]["operators"]["scan"]["rows_scanned"] > 0

    def test_quality_bench_generated_db(self, capsys):
        assert main(
            [
                "quality-bench",
                "Q(x) :- E(x, y), E(y, z), E(z, w), E(w, x)",
                "--nodes", "60",
                "--edges", "500",
                "--skew", "0.5",
                "--seed", "3",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "quality-bench"
        assert payload["is_sound"] is True
        assert payload["wrong_answers"] == 0
        assert 0.0 <= payload["recall"] <= 1.0
        assert payload["db_tuples"] > 0

    def test_quality_bench_db_file(self, tmp_path, capsys):
        db = {"relations": {"E": [[1, 2], [2, 3], [3, 1]]}}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(db))
        assert main(
            [
                "quality-bench",
                "Q() :- E(x, y), E(y, z), E(z, x)",
                "--cls", "TW1",
                "--db", str(path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "recall" in out and "containment gap" in out

    def test_unknown_class(self):
        with pytest.raises(SystemExit):
            main(["approximate", "Q() :- E(x,y)", "--cls", "WAT"])


class TestCliJson:
    def test_approximate_json(self, capsys):
        assert main(
            ["approximate", "Q() :- E(x,y), E(y,z), E(z,x)", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "approximate"
        assert payload["class"] == "TW(1)"
        assert payload["method"] == "auto"
        assert payload["workers"] == 1
        assert payload["approximations"] == ["Q() :- E(x, x)"]
        assert payload["seconds"] >= 0

    def test_approximate_all_json_with_workers(self, capsys):
        assert main(
            [
                "approximate",
                "Q() :- E(x,y), E(y,z), E(z,x)",
                "--all",
                "--json",
                "--workers",
                "2",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all"] is True
        assert payload["workers"] == 2
        assert payload["approximations"], "C-APPR_min(Q) must be non-empty"

    def test_approximate_stats_reports_index_counters(self, capsys):
        assert main(
            [
                "approximate",
                "Q() :- E(x,y), E(y,z), E(z,x)",
                "--all",
                "--json",
                "--stats",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["stats"]
        assert "generation_switches" in stats
        assert "late_canonizations" in stats

    def test_classify_json(self, capsys):
        assert main(
            ["classify", "Q() :- E(x,y), E(y,z), E(z,x)", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "classify"
        assert payload["case"] == "not bipartite"
        assert payload["seconds"] >= 0

    def test_non_json_output_unchanged(self, capsys):
        assert main(["approximate", "Q() :- E(x,y), E(y,z), E(z,x)"]) == 0
        out = capsys.readouterr().out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
