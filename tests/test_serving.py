"""Tests for the serving layer: protocol, cache, daemon lifecycle, drills.

Covers :mod:`repro.serve` end to end — wire-protocol framing, the
canonical-form result cache (hom-equivalent requests share one slot; disk
entries survive restarts; corruption is quarantined, never fatal),
admission control (load shed as structured data, not connection resets),
graceful drain on ``SIGTERM``/``shutdown`` with in-flight work completed
and the cache index flushed, and the fault drills: a killed pool worker
degrades one request, a corrupted disk entry costs one recomputation —
and the CLI satellites surfacing quarantined shard faults.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.core import TW1, HypertreeClass, PipelineStats
from repro.cq import parse_query
from repro.fabric import ShardFault
from repro.serve import (
    MAX_LINE_BYTES,
    ApproximationServer,
    ProtocolError,
    ResultCache,
    ServeClient,
    ServeError,
    ServerConfig,
    canonical_representative,
    canonical_result_key,
    decode_message,
    encode_message,
    parse_request,
    wait_for_server,
)
from repro.serve.cache import _ENTRY_SUFFIX, _QUARANTINE_SUFFIX
from repro.testing import FaultPlan
from repro.workloads import cycle_with_chords

TRIANGLE = "Q() :- E(x,y), E(y,z), E(z,x)"
TRIANGLE_RENAMED = "Q() :- E(b,c), E(c,a), E(a,b)"
# The triangle plus a redundant atom: hom-equivalent, different syntax.
TRIANGLE_PADDED = "Q() :- E(x,y), E(y,z), E(z,x), E(x,u)"

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


# --------------------------------------------------------------------------
# Protocol framing
# --------------------------------------------------------------------------


class TestProtocol:
    def test_round_trip(self):
        frame = encode_message({"op": "stats", "id": 3})
        assert frame.endswith(b"\n")
        assert decode_message(frame) == {"op": "stats", "id": 3}

    def test_parse_request_envelope(self):
        assert parse_request(b'{"op": "health"}\n')["op"] == "health"
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_request(b'{"op": "explode"}')
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_request(b"[1, 2]")
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_request(b"{nope")
        with pytest.raises(ProtocolError, match="not UTF-8"):
            parse_request(b'\xff\xfe{"op": "stats"}')

    def test_oversized_line_is_fatal(self):
        with pytest.raises(ProtocolError) as info:
            decode_message(b"x" * (MAX_LINE_BYTES + 1))
        assert info.value.fatal
        # Ordinary junk is recoverable: the stream framing is intact.
        with pytest.raises(ProtocolError) as info:
            parse_request(b"{nope")
        assert not info.value.fatal


# --------------------------------------------------------------------------
# Canonical result keys
# --------------------------------------------------------------------------


class TestCanonicalKey:
    def test_hom_equivalent_queries_share_a_key(self):
        knobs = ("auto", False)
        keys = {
            canonical_result_key(parse_query(text).tableau(), TW1, knobs)
            for text in (TRIANGLE, TRIANGLE_RENAMED, TRIANGLE_PADDED)
        }
        assert len(keys) == 1

    def test_class_and_knobs_separate_slots(self):
        tableau = parse_query(TRIANGLE).tableau()
        base = canonical_result_key(tableau, TW1, ("auto", False))
        assert canonical_result_key(tableau, HypertreeClass(2), ("auto", False)) != base
        assert canonical_result_key(tableau, TW1, ("auto", True)) != base

    def test_representative_identical_across_phrasings(self):
        # Not merely isomorphic: the decoded canonical form is the *same*
        # tableau object-value for every spelling of the class, which is
        # what makes cold recomputations bit-identical to each other.
        representatives = {
            canonical_representative(parse_query(text).tableau())
            for text in (TRIANGLE, TRIANGLE_RENAMED, TRIANGLE_PADDED)
        }
        assert len(representatives) == 1

    def test_different_queries_differ(self):
        knobs = ("auto", False)
        one = canonical_result_key(parse_query(TRIANGLE).tableau(), TW1, knobs)
        other = canonical_result_key(
            parse_query("Q() :- E(x,y), E(y,x)").tableau(), TW1, knobs
        )
        assert one != other


# --------------------------------------------------------------------------
# The result cache
# --------------------------------------------------------------------------


def _entry_files(directory: Path) -> list[Path]:
    return sorted(directory.glob(f"*{_ENTRY_SUFFIX}"))


class TestResultCache:
    def test_memory_hit_and_miss(self):
        cache = ResultCache(capacity=4)
        assert cache.get(("k",)) is None
        cache.put(("k",), {"answer": 1})
        assert cache.get(("k",)) == {"answer": 1}
        assert cache.stats.memory_hits == 1 and cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh a; b is now LRU
        cache.put(("c",), 3)
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1 and cache.get(("c",)) == 3
        assert cache.stats.evictions == 1

    def test_disk_tier_survives_a_new_instance(self, tmp_path):
        first = ResultCache(capacity=4, disk_dir=tmp_path)
        first.put(("k",), {"answer": [1, 2]})
        second = ResultCache(capacity=4, disk_dir=tmp_path)
        assert second.get(("k",)) == {"answer": [1, 2]}
        assert second.stats.disk_hits == 1
        # Promoted into memory: the next lookup does not touch disk.
        assert second.get(("k",)) == {"answer": [1, 2]}
        assert second.stats.memory_hits == 1

    @pytest.mark.parametrize("mode", ["truncate", "garble"])
    def test_corrupt_entry_quarantined_not_fatal(self, tmp_path, mode):
        cache = ResultCache(capacity=4, disk_dir=tmp_path)
        cache.put(("k",), {"answer": 7})
        (entry,) = _entry_files(tmp_path)
        FaultPlan(
            "corrupt", 1, str(tmp_path / "token"), corrupt_mode=mode
        ).corrupt_file(str(entry))
        fresh = ResultCache(capacity=4, disk_dir=tmp_path)
        assert fresh.get(("k",)) is None  # a logged miss, not a crash
        assert fresh.stats.quarantined == 1
        assert not _entry_files(tmp_path)
        assert list(tmp_path.glob(f"*{_QUARANTINE_SUFFIX}"))
        # The slot is reusable after recomputation.
        fresh.put(("k",), {"answer": 7})
        assert ResultCache(capacity=4, disk_dir=tmp_path).get(("k",)) == {
            "answer": 7
        }

    def test_foreign_payload_quarantined(self, tmp_path):
        cache = ResultCache(capacity=4, disk_dir=tmp_path)
        cache.put(("k",), 1)
        (entry,) = _entry_files(tmp_path)
        entry.write_bytes(b"not a pickle at all")
        assert ResultCache(capacity=4, disk_dir=tmp_path).get(("k",)) is None

    def test_corrupt_fault_plan_fires_exactly_once(self, tmp_path):
        disk = tmp_path / "cache"
        plan = FaultPlan("corrupt", 2, str(tmp_path / "token"))
        cache = ResultCache(capacity=4, disk_dir=disk, fault_plan=plan)
        cache.put(("a",), 1)  # write #1: untouched
        cache.put(("b",), 2)  # write #2: corrupted right after landing
        fresh = ResultCache(capacity=4, disk_dir=disk)
        assert fresh.get(("a",)) == 1
        assert fresh.get(("b",)) is None
        assert fresh.stats.quarantined == 1
        # The token is claimed: re-reaching the count cannot re-fire.
        again = ResultCache(capacity=4, disk_dir=disk, fault_plan=plan)
        again.put(("c",), 3)
        again.put(("d",), 4)
        assert ResultCache(capacity=4, disk_dir=disk).get(("d",)) == 4

    def test_only_corrupt_plans_accepted(self, tmp_path):
        with pytest.raises(ValueError, match="corrupt"):
            ResultCache(disk_dir=tmp_path, fault_plan=FaultPlan("kill", 1, "t"))

    def test_flush_writes_index(self, tmp_path):
        cache = ResultCache(capacity=4, disk_dir=tmp_path)
        cache.put(("k",), 1)
        index = cache.flush()
        payload = json.loads(Path(index).read_text())
        assert payload["disk_entries"] == 1
        assert payload["stats"]["stores"] == 1
        assert ResultCache(capacity=4).flush() is None

    def test_flush_merges_sibling_writer_sections(self, tmp_path):
        """Fleet workers share one disk tier: each flush folds the other
        writers' sections in instead of clobbering the index."""
        cache = ResultCache(capacity=4, disk_dir=tmp_path)
        cache.put(("k",), 1)
        cache.get(("k",))
        # A sibling worker's section, as an earlier flush left it.
        sibling = {
            "flushed_at": 0.0,
            "memory_entries": 3,
            "resident_bytes": 64,
            "stats": {
                "memory_hits": 9,
                "disk_hits": 1,
                "misses": 10,
                "stores": 5,
                "store_declined": 0,
                "evictions": 0,
                "quarantined": 0,
                "flushes": 2,
                "hit_rate": 0.5,
            },
        }
        index_path = Path(cache.flush())
        payload = json.loads(index_path.read_text())
        payload["writers"]["99999"] = sibling
        index_path.write_text(json.dumps(payload))
        merged = json.loads(Path(cache.flush()).read_text())
        assert set(merged["writers"]) == {"99999", str(os.getpid())}
        assert merged["memory_entries"] == 3 + 1
        # Counters sum; hit_rate is recomputed from the sums, not averaged.
        assert merged["stats"]["stores"] == 5 + 1
        assert merged["stats"]["memory_hits"] == 9 + 1
        lookups = merged["stats"]["memory_hits"] + merged["stats"][
            "disk_hits"
        ] + merged["stats"]["misses"]
        hits = merged["stats"]["memory_hits"] + merged["stats"]["disk_hits"]
        assert merged["stats"]["hit_rate"] == round(hits / lookups, 6)

    def test_byte_budget_evicts_to_fit(self):
        value = {"pad": "x" * 1000}  # ~1 KiB pickled
        cache = ResultCache(capacity=100, max_bytes=2600)
        for name in ("a", "b", "c", "d"):
            cache.put((name,), dict(value))
        assert cache.resident_bytes() <= 2600
        assert cache.stats.evictions >= 2
        # LRU order: the oldest entries paid for the budget.
        assert cache.get(("a",)) is None and cache.get(("b",)) is None
        assert cache.get(("d",)) is not None

    def test_byte_budget_keeps_at_least_one_entry(self):
        cache = ResultCache(capacity=100, max_bytes=64)
        cache.put(("big",), {"pad": "x" * 1000})
        # A single entry above the budget stays resident: an empty cache
        # that can never admit anything would be a worse failure mode.
        assert cache.get(("big",)) is not None
        assert cache.resident_bytes() > 64

    def test_byte_budget_overwrite_releases_old_size(self):
        cache = ResultCache(capacity=100, max_bytes=10_000)
        cache.put(("k",), {"pad": "x" * 4000})
        first = cache.resident_bytes()
        cache.put(("k",), {"pad": "y" * 10})
        assert cache.resident_bytes() < first
        assert cache.get(("k",)) == {"pad": "y" * 10}

    def test_byte_budget_validation(self):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(max_bytes=0)


# --------------------------------------------------------------------------
# In-process server harness
# --------------------------------------------------------------------------


class _ServerThread:
    """Host an :class:`ApproximationServer` on a background event loop."""

    def __init__(self, config: ServerConfig) -> None:
        self.server = ApproximationServer(config)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._host, daemon=True)

    def _host(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.run())
        self.loop.close()

    def __enter__(self) -> "_ServerThread":
        self.thread.start()
        wait_for_server(self.server.config.socket_path)
        return self

    def __exit__(self, *exc_info) -> None:
        self.loop.call_soon_threadsafe(self.server.request_shutdown)
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "server failed to drain"

    def client(self, **kwargs) -> ServeClient:
        return ServeClient(self.server.config.socket_path, **kwargs)


def _wait_for(predicate, deadline: float = 10.0) -> None:
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.01)
    raise TimeoutError("condition not reached")


class TestClientSockets:
    def test_dead_socket_probe_leaks_no_socket(self, tmp_path, monkeypatch):
        # A ResourceWarning raised from a socket finalizer is "unraisable":
        # collect those instead of letting them print and pass.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        dead = str(tmp_path / "nobody-listens.sock")
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(TimeoutError):
                wait_for_server(dead, deadline=0.05)
            with pytest.raises(OSError):
                ServeClient(dead)
            gc.collect()
        assert [str(hook.exc_value) for hook in unraisable] == []


class TestServer:
    def test_roundtrip_canonical_sharing_and_stats(self, tmp_path):
        config = ServerConfig(
            socket_path=str(tmp_path / "s.sock"), cache_dir=str(tmp_path / "c")
        )
        with _ServerThread(config) as host, host.client() as client:
            cold = client.approximate(TRIANGLE, "TW1", request_id="r1")
            assert cold["ok"] and not cold["cached"]
            assert cold["id"] == "r1"
            assert cold["approximations"]
            for variant in (TRIANGLE_RENAMED, TRIANGLE_PADDED):
                warm = client.approximate(variant, "TW1")
                assert warm["cached"]
                assert warm["approximations"] == cold["approximations"]
            stats = client.stats()
            assert stats["served"] == 3
            assert stats["cache"]["memory_hits"] == 2
            assert stats["cache_disk_entries"] == 1
            assert stats["protocol"] == 1

    def test_bad_requests_are_structured_and_nonfatal(self, tmp_path):
        config = ServerConfig(socket_path=str(tmp_path / "s.sock"))
        with _ServerThread(config) as host, host.client() as client:
            with pytest.raises(ServeError, match="unparseable"):
                client.approximate("this is not a query")
            with pytest.raises(ServeError, match="unknown class"):
                client.approximate(TRIANGLE, "TW-weird")
            with pytest.raises(ServeError, match="sleep is a test op"):
                client.sleep(0.1)
            # The connection survived three rejections.
            assert client.stats()["bad_requests"] == 3

    def test_load_shed_is_data_not_a_reset(self, tmp_path):
        config = ServerConfig(
            socket_path=str(tmp_path / "s.sock"),
            queue_limit=1,
            concurrency=1,
            enable_test_ops=True,
        )
        with _ServerThread(config) as host:
            occupant = host.client()
            done: list[dict] = []
            worker = threading.Thread(
                target=lambda: done.append(occupant.sleep(1.0))
            )
            worker.start()
            try:
                _wait_for(lambda: host.server._active >= 1)
                with host.client() as client:
                    shed = client.approximate(TRIANGLE, check=False)
                    assert shed["ok"] is False
                    assert shed["error"]["kind"] == "overloaded"
                    assert shed["queue_depth"] == 1
                    assert shed["queue_limit"] == 1
                    # Same connection still answers: shed with data, not
                    # with a closed socket.
                    assert client.stats()["load_shed"] == 1
            finally:
                worker.join(timeout=30)
                occupant.close()
            assert done and done[0]["ok"]

    def test_shutdown_op_drains_inflight_and_refuses_new(self, tmp_path):
        config = ServerConfig(
            socket_path=str(tmp_path / "s.sock"),
            concurrency=1,
            enable_test_ops=True,
        )
        host = _ServerThread(config)
        with host:
            occupant = host.client()
            done: list[dict] = []
            worker = threading.Thread(
                target=lambda: done.append(occupant.sleep(0.8))
            )
            worker.start()
            try:
                _wait_for(lambda: host.server._active >= 1)
                with host.client() as client:
                    assert client.shutdown()["draining"]
                    refused = client.approximate(TRIANGLE, check=False)
                    assert refused["error"]["kind"] == "shutting-down"
            finally:
                worker.join(timeout=30)
                occupant.close()
            # The in-flight request completed during the drain.
            assert done and done[0]["ok"]
        assert host.server.drained >= 1

    def test_internal_failure_isolated_to_one_request(self, tmp_path):
        config = ServerConfig(socket_path=str(tmp_path / "s.sock"))
        with _ServerThread(config) as host, host.client() as client:
            broken = ApproximationServer.__dict__["_serve_approximate"]

            def explode(self, request):
                raise RuntimeError("scripted engine failure")

            host.server._serve_approximate = explode.__get__(host.server)
            response = client.approximate(TRIANGLE, check=False)
            assert response["error"]["kind"] == "internal"
            assert "scripted engine failure" in response["error"]["message"]
            host.server._serve_approximate = broken.__get__(host.server)
            # The server lives on and serves the next request.
            assert client.approximate(TRIANGLE)["ok"]
            assert client.stats()["internal_errors"] == 1

    def test_corrupted_entry_costs_one_recomputation(self, tmp_path):
        cache_dir = str(tmp_path / "c")
        drill = ServerConfig(
            socket_path=str(tmp_path / "a.sock"),
            cache_dir=cache_dir,
            fault_plan=FaultPlan("corrupt", 1, str(tmp_path / "token")),
        )
        with _ServerThread(drill) as host, host.client() as client:
            cold = client.approximate(TRIANGLE)
            assert not cold["cached"]
        # Restart over the damaged tier: the probe quarantines, recomputes
        # bit-identically, and the slot heals.
        clean = ServerConfig(
            socket_path=str(tmp_path / "b.sock"), cache_dir=cache_dir
        )
        with _ServerThread(clean) as host, host.client() as client:
            recovered = client.approximate(TRIANGLE_RENAMED)
            assert not recovered["cached"]
            assert recovered["approximations"] == cold["approximations"]
            assert host.server.cache.stats.quarantined == 1
            assert client.approximate(TRIANGLE)["cached"]
        assert list(Path(cache_dir).glob(f"*{_QUARANTINE_SUFFIX}"))

    @pytest.mark.slow
    def test_killed_worker_degrades_request_not_server(self, tmp_path):
        query = str(cycle_with_chords(8, ((0, 3), (1, 4), (2, 6))))
        config = ServerConfig(
            socket_path=str(tmp_path / "s.sock"),
            workers=2,
            max_extra_atoms=0,
            fault_plan=FaultPlan("kill", 5, str(tmp_path / "token")),
        )
        with _ServerThread(config) as host, host.client(timeout=300.0) as client:
            hit = client.approximate(query, "HTW2", all_=True)
            assert hit["ok"]
            assert hit["pool_respawns"] >= 1
            # The respawned pool resubmitted the lost batch: no candidates
            # were quarantined, so the result is complete and was cached.
            assert hit["quarantined"] == 0 and not hit["faults"]
            warm = client.approximate(query, "HTW2", all_=True)
            assert warm["cached"]
            assert warm["approximations"] == hit["approximations"]
            assert client.stats()["faults"]["pool_respawns"] >= 1


# --------------------------------------------------------------------------
# Subprocess lifecycle: SIGTERM drain + warm restart (the CLI daemon)
# --------------------------------------------------------------------------


def _spawn_daemon(sock: str, cache_dir: str, *extra: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            sock,
            "--cache-dir",
            cache_dir,
            *extra,
        ],
        env=env,
        cwd=REPO_ROOT,
        stderr=subprocess.PIPE,
        text=True,
    )


@pytest.mark.slow
class TestDaemonLifecycle:
    def test_sigterm_drains_persists_and_restarts_warm(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        cache_dir = str(tmp_path / "cache")
        daemon = _spawn_daemon(sock, cache_dir, "--enable-test-ops")
        try:
            wait_for_server(sock, deadline=30.0)
            with ServeClient(sock) as client:
                cold = client.approximate(TRIANGLE, "TW1")
                assert not cold["cached"]
            # SIGTERM with a request in flight: the response must still
            # arrive, then the process exits cleanly.
            occupant = ServeClient(sock)
            done: list[dict] = []
            worker = threading.Thread(
                target=lambda: done.append(occupant.sleep(1.0))
            )
            worker.start()
            time.sleep(0.3)  # let the sleep op be admitted
            daemon.send_signal(signal.SIGTERM)
            worker.join(timeout=30)
            occupant.close()
            assert daemon.wait(timeout=30) == 0
            stderr = daemon.stderr.read()
            assert "drained" in stderr and "cache index flushed" in stderr
            assert done and done[0]["ok"], "in-flight request was dropped"
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            daemon.stderr.close()
        index = json.loads((Path(cache_dir) / "index.json").read_text())
        assert index["disk_entries"] == 1

        # A restarted daemon over the same cache dir answers warm and
        # bit-identically — for any phrasing of the equivalence class.
        restarted = _spawn_daemon(sock, cache_dir)
        try:
            wait_for_server(sock, deadline=30.0)
            with ServeClient(sock) as client:
                warm = client.approximate(TRIANGLE_RENAMED, "TW1")
                assert warm["cached"], "restart did not come up warm"
                assert warm["approximations"] == cold["approximations"]
                stats = client.stats()
                assert stats["cache"]["disk_hits"] == 1
            with ServeClient(sock) as client:
                client.shutdown()
            assert restarted.wait(timeout=30) == 0
        finally:
            if restarted.poll() is None:
                restarted.kill()
                restarted.wait()
            restarted.stderr.close()


# --------------------------------------------------------------------------
# CLI satellites: fault surfacing in `repro approximate`
# --------------------------------------------------------------------------


class TestCliFaultSurfacing:
    def _fake_approximate(self, query, cls, **kwargs):
        kwargs["stats"].quarantined = 3
        kwargs["faults"].append(
            ShardFault("deadline", (0, 2), "local-0", "shard stuck", 1.5)
        )
        return query

    def _fake_recovered(self, query, cls, **kwargs):
        kwargs["faults"].append(
            ShardFault("connection", (1, 2), "local-1", "slot died", 0.2)
        )
        return query

    def test_json_payload_carries_faults(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "approximate", self._fake_approximate)
        assert cli.main(["approximate", TRIANGLE, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quarantined"] == 3
        assert payload["faults"] == [
            {
                "kind": "deadline",
                "shard": [0, 2],
                "worker": "local-0",
                "error": "shard stuck",
                "elapsed": 1.5,
            }
        ]

    def test_human_output_warns_on_stderr(self, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "approximate", self._fake_approximate)
        assert cli.main(["approximate", TRIANGLE]) == 0
        err = capsys.readouterr().err
        assert "3 shard(s) lost to quarantine" in err
        assert "deadline: shard stuck" in err
        assert "sound but may be incomplete" in err

    def test_recovered_faults_are_listed_without_warning(
        self, capsys, monkeypatch
    ):
        import repro.cli as cli

        monkeypatch.setattr(cli, "approximate", self._fake_recovered)
        assert cli.main(["approximate", TRIANGLE]) == 0
        err = capsys.readouterr().err
        assert "connection: slot died" in err
        assert "warning" not in err and "incomplete" not in err

    def test_clean_runs_do_not_grow_keys(self, capsys):
        from repro.cli import main

        assert main(["approximate", TRIANGLE, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "quarantined" not in payload and "faults" not in payload
