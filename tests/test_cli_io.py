"""Tests for JSON I/O and the command-line interface."""

import json

import pytest

from repro.core import ApproximationConfig
from repro.cq import Structure, parse_query
from repro.cli import main
from repro.serve import FleetConfig, ServerConfig
from repro.testing.faults import FaultPlan
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


TRIANGLE = "Q() :- E(x,y), E(y,z), E(z,x)"
_TOKEN = "/run/token"
_CHAOS_WORKER_ARGV = [
    # A worker argv that spells out the defaults, with a chaos drill
    # appended.
    "serve", "--socket", "/run/worker-0.sock", "--queue-limit", "32",
    "--concurrency", "2", "--exact-limit", "9", "--max-extra-atoms", "0",
    "--workers", "1", "--cache-capacity", "1024", "--cache-dir", "/run/cache",
    "--enable-test-ops", "--fault-kind", "drop-connection", "--fault-at", "2",
    "--fault-token", _TOKEN, "--fault-delay", "3.0",
]


def _parsed_config(argv):
    """The configuration ``repro`` builds from ``argv`` (for ``worker``,
    its fault plan)."""
    import repro.cli as cli

    args = cli._build_parser().parse_args(argv)
    if args.command == "worker":
        return cli._fault_plan(args, cli._WORKER_FAULT_FLAGS)
    return {
        "approximate": cli._approximation_config,
        "serve": cli._server_config,
        "fleet": cli._fleet_config,
    }[args.command](args)


class TestRunPolicyFlags:
    """The run-policy, server and drill flags come from the tables in
    ``repro.serve.server``; each ``repro`` argv the tests, the chaos sweep
    and the benchmarks pass builds the configuration pinned here."""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["approximate", TRIANGLE], ApproximationConfig()),
            (["approximate", TRIANGLE, "--all", "--cls", "TW1"],
             ApproximationConfig()),
            (["approximate", "Q() :- R(x,u,y), R(y,v,z), R(z,w,x)", "--cls", "AC"],
             ApproximationConfig()),
            (["approximate", TRIANGLE, "--all", "--json", "--stats"],
             ApproximationConfig()),
            (["approximate", TRIANGLE, "--all", "--json", "--workers", "2"],
             ApproximationConfig(workers=2)),
            (["approximate", TRIANGLE, "--cls", "TW1", "--max-candidates", "2",
              "--json"], ApproximationConfig(max_candidates=2)),
            (["approximate", TRIANGLE, "--all", "--json", "--fabric-worker",
              "/run/a.sock", "--fabric-worker", "/run/b.sock",
              "--heartbeat-interval", "0.5"],
             ApproximationConfig(
                 fabric_workers=("/run/a.sock", "/run/b.sock"),
                 heartbeat_interval=0.5,
             )),
            (["serve", "--socket", "/run/s.sock", "--cache-dir", "/run/cache"],
             ServerConfig(socket_path="/run/s.sock", cache_dir="/run/cache")),
            (["serve", "--socket", "/run/s.sock", "--cache-dir", "/run/cache",
              "--enable-test-ops"],
             ServerConfig(
                 socket_path="/run/s.sock",
                 cache_dir="/run/cache",
                 enable_test_ops=True,
             )),
            (_CHAOS_WORKER_ARGV,
             ServerConfig(
                 socket_path="/run/worker-0.sock",
                 max_extra_atoms=0,
                 cache_dir="/run/cache",
                 enable_test_ops=True,
                 fault_plan=FaultPlan("drop-connection", 2, _TOKEN, delay=3.0),
             )),
            (["fleet", "--workers", "2", "--socket", "/run/fleet.sock",
              "--run-dir", "/run", "--cache-dir", "/run/cache"],
             FleetConfig(
                 workers=2,
                 socket_path="/run/fleet.sock",
                 run_dir="/run",
                 worker=ServerConfig(cache_dir="/run/cache"),
             )),
            (["worker", "--port", "0"], None),
            (["worker", "--socket", "/run/w.sock", "--fault-kind",
              "delay-response", "--fault-token", _TOKEN, "--fault-delay", "30"],
             FaultPlan("delay-response", 1, _TOKEN, delay=30.0)),
            (["worker", "--socket", "/run/w.sock", "--fault-kind",
              "garble-frame", "--fault-token", _TOKEN],
             FaultPlan("garble-frame", 1, _TOKEN, delay=5.0)),
        ],
    )
    def test_argv_builds_the_same_config(self, argv, expected):
        assert _parsed_config(argv) == expected

    @pytest.mark.parametrize(
        "command",
        [
            ["approximate", TRIANGLE],
            ["serve", "--socket", "/run/s.sock"],
            ["fleet", "--socket", "/run/f.sock"],
        ],
    )
    def test_every_policy_flag_reaches_the_config(self, command):
        from repro.serve.server import POLICY_FLAGS

        values = {
            "exact_limit": 7,
            "max_extra_atoms": 0,
            "workers": 3,
            "request_deadline": 2.5,
            "memory_limit": 1 << 20,
            "max_candidates": 40,
            "shard_timeout": 1.5,
        }
        argv = list(command)
        for flag in POLICY_FLAGS:
            if command[0] == "fleet" and flag.field in ("workers", "shard_timeout"):
                continue  # fleet's --workers counts worker processes
            argv += [flag.flag, str(values[flag.field])]
        config = _parsed_config(argv)
        if command[0] == "fleet":
            # Each worker's pipeline runs serial, so it has no shard to time.
            values.update(workers=1, shard_timeout=None)
            config = config.worker
        elif command[0] == "approximate":
            values["deadline"] = values.pop("request_deadline")
        for field, value in values.items():
            assert getattr(config, field) == value, field

    @pytest.mark.parametrize(
        "command,bad",
        [
            (command, bad)
            for command in (
                ["approximate", TRIANGLE],
                ["serve", "--socket", "/run/s.sock"],
                ["fleet", "--socket", "/run/f.sock"],
            )
            for bad in (
                ["--deadline", "-1"],
                ["--deadline", "0"],
                ["--max-candidates", "0"],
                ["--shard-timeout", "-1"],
                ["--memory-limit", "0"],
            )
            if not (command[0] == "fleet" and bad[0] == "--shard-timeout")
        ],
    )
    def test_nonpositive_budget_is_a_usage_error(self, command, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {bad[0]}" in err

    def test_client_deadline_is_validated(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["client", "--socket", "/run/s.sock", TRIANGLE, "--deadline", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("token", [["--fault-token", _TOKEN], []])
    def test_worker_takes_network_drills_only(self, token, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["worker", "--socket", "/run/w.sock", "--fault-kind", "kill"] + token)
        assert exc.value.code == 2
        assert "argument --fault-kind: invalid choice: 'kill'" in (
            capsys.readouterr().err
        )

    def test_fleet_takes_no_pipeline_pool_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--socket", "/run/f.sock", "--shard-timeout", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --shard-timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["serve"], ["worker"]])
    def test_drill_needs_a_token(self, command, capsys):
        code = main(
            command + ["--socket", "/run/x.sock", "--fault-kind", "drop-connection"]
        )
        assert code == 2
        assert "--fault-token" in capsys.readouterr().err
