"""Tests for the fault-tolerant distributed shard fabric (:mod:`repro.fabric`).

Protocol units (address parsing, blob framing, worker validation), then
the five fault drills the fabric must survive — each scripted through
the deterministic token-file fault discipline or real signals, and each
asserting the final frontier equals the serial one, member for member:

1. worker SIGKILL'd mid-shard (connection fault, re-dispatch);
2. hung worker (SIGSTOP) past the heartbeat (heartbeat fault);
3. dead address beside a live worker (retry, then blacklist);
4. straggler speculation with duplicate-result absorption
   (``delay-response`` drill);
5. every worker failing (graceful degradation to local execution).

A run that lost a worker and retried its shard is complete: the server
caches it and the CLI lists its faults without the "incomplete" warning.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

import repro
from repro.core import TW1, run_pipeline
from repro.fabric import (
    FabricCoordinator,
    WorkerServer,
    parse_address,
)
from repro.fabric.protocol import (
    ProtocolError,
    decode_blob,
    encode_blob,
    read_frame,
)
from repro.testing.faults import FaultPlan
from repro.workloads import cycle_with_chords

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
QUERY = cycle_with_chords(6)


@pytest.fixture(scope="module")
def serial_frontier():
    tableau = QUERY.tableau()
    return tableau, run_pipeline(tableau, TW1, max_extra_atoms=0).frontier


def start_worker(tmp_path, name: str, *extra_args: str):
    """A ``repro worker`` subprocess on a unix socket, ready to serve."""
    sock_path = str(tmp_path / f"{name}.sock")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--socket", sock_path]
        + list(extra_args),
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    line = proc.stdout.readline()
    assert "fabric worker listening on" in line, line
    return proc, sock_path


def stop_worker(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


# --------------------------------------------------------------------------
# Protocol units
# --------------------------------------------------------------------------


class TestProtocol:
    def test_parse_address_tcp(self):
        assert parse_address("10.0.0.1:9000") == ("tcp", ("10.0.0.1", 9000))
        assert parse_address(":9000") == ("tcp", ("127.0.0.1", 9000))
        assert parse_address("[::1]:9000") == ("tcp", ("::1", 9000))

    def test_parse_address_unix(self):
        assert parse_address("/tmp/worker.sock") == ("unix", "/tmp/worker.sock")
        # A colon with a non-numeric tail is a path, not a port.
        assert parse_address("/tmp/odd:name") == ("unix", "/tmp/odd:name")

    def test_blob_round_trip(self):
        payload = (("tuple", 1), {"nested": [2, 3]}, None)
        assert decode_blob(encode_blob(payload)) == payload

    def test_blob_rejects_junk(self):
        with pytest.raises(ProtocolError):
            decode_blob("@@@not base64@@@")
        with pytest.raises(ProtocolError):
            decode_blob(encode_blob(1)[:-4] + "AAAA")

    def test_read_frame_eof_semantics(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"whole frame\n")
            buffer = bytearray()
            assert read_frame(right, buffer) == b"whole frame"
            left.sendall(b"torn fra")
            left.close()
            with pytest.raises(ProtocolError):
                read_frame(right, buffer)
        finally:
            right.close()

    def test_worker_rejects_non_network_fault(self, tmp_path):
        plan = FaultPlan(
            kind="kill", at_check=1, token_path=str(tmp_path / "token")
        )
        with pytest.raises(ValueError):
            WorkerServer("127.0.0.1:0", fault_plan=plan)

    def test_coordinator_requires_addresses(self):
        with pytest.raises(ValueError):
            FabricCoordinator([], context=())


# --------------------------------------------------------------------------
# Fault drills
# --------------------------------------------------------------------------


class TestFaultDrills:
    @pytest.mark.slow
    def test_worker_sigkilled_mid_shard(self, tmp_path, serial_frontier):
        """Drill 1: SIGKILL a worker while it holds an in-flight shard."""
        tableau, serial = serial_frontier
        token = str(tmp_path / "token")
        # The delay drill parks the victim mid-shard: once the token file
        # exists the worker has computed a shard and is sleeping in the
        # response seam — a deterministic "mid-shard" moment to kill it.
        victim, victim_sock = start_worker(
            tmp_path,
            "victim",
            "--fault-kind",
            "delay-response",
            "--fault-token",
            token,
            "--fault-delay",
            "30",
        )
        survivor, survivor_sock = start_worker(tmp_path, "survivor")
        try:
            from threading import Thread

            def kill_when_parked():
                deadline = time.monotonic() + 60
                while not os.path.exists(token):
                    if time.monotonic() > deadline:
                        return
                    time.sleep(0.02)
                victim.kill()

            killer = Thread(target=kill_when_parked, daemon=True)
            killer.start()
            result = run_pipeline(
                tableau,
                TW1,
                max_extra_atoms=0,
                fabric=[victim_sock, survivor_sock],
                heartbeat_interval=0.5,
            )
            killer.join(timeout=60)
            assert os.path.exists(token), "the victim never reached a shard"
            assert result.frontier == serial
            assert any(fault.kind == "connection" for fault in result.faults)
            assert result.stats.shard_retries >= 1
        finally:
            stop_worker(victim)
            stop_worker(survivor)

    @pytest.mark.slow
    def test_hung_worker_past_heartbeat(self, tmp_path, serial_frontier):
        """Drill 2: a SIGSTOP'd worker accepts connects but never answers."""
        tableau, serial = serial_frontier
        hung, hung_sock = start_worker(tmp_path, "hung")
        live, live_sock = start_worker(tmp_path, "live")
        try:
            os.kill(hung.pid, signal.SIGSTOP)
            result = run_pipeline(
                tableau,
                TW1,
                max_extra_atoms=0,
                fabric=[hung_sock, live_sock],
                heartbeat_interval=0.3,
            )
            assert result.frontier == serial
            assert result.stats.heartbeat_misses >= 1
            assert any(fault.kind == "heartbeat" for fault in result.faults)
        finally:
            os.kill(hung.pid, signal.SIGCONT)
            stop_worker(hung)
            stop_worker(live)

    def test_retry_then_blacklist(self, tmp_path, serial_frontier):
        """Drill 3: a dead address is retried with backoff, then retired."""
        tableau, serial = serial_frontier
        # Park the live worker ~1.5s on its first response so the run
        # outlasts the dead dispatcher's three backoff cycles — the
        # blacklist must trip while work is still in flight.
        live, live_sock = start_worker(
            tmp_path,
            "live",
            "--fault-kind",
            "delay-response",
            "--fault-token",
            str(tmp_path / "token"),
            "--fault-delay",
            "1.5",
        )
        dead_sock = str(tmp_path / "nobody-home.sock")
        try:
            result = run_pipeline(
                tableau,
                TW1,
                max_extra_atoms=0,
                fabric=[dead_sock, live_sock],
                heartbeat_interval=0.3,
            )
            assert result.frontier == serial
            assert result.stats.workers_blacklisted == 1
            assert result.stats.shard_retries >= 3
            dead_faults = [f for f in result.faults if f.worker == dead_sock]
            assert dead_faults and all(
                fault.kind == "connection" for fault in dead_faults
            )
            # The live worker carried the whole run; no local fallback.
            assert result.stats.fabric_local_shards == 0
        finally:
            stop_worker(live)

    @pytest.mark.slow
    def test_speculation_absorbs_duplicate_results(
        self, tmp_path, serial_frontier
    ):
        """Drill 4: a straggler is re-executed; the loser's result merges
        as a duplicate instead of corrupting the frontier."""
        tableau, serial = serial_frontier
        token = str(tmp_path / "token")
        straggler, straggler_sock = start_worker(
            tmp_path,
            "straggler",
            "--fault-kind",
            "delay-response",
            "--fault-token",
            token,
            "--fault-delay",
            "4",
        )
        fast, fast_sock = start_worker(tmp_path, "fast")
        try:
            result = run_pipeline(
                tableau,
                TW1,
                max_extra_atoms=0,
                fabric=[straggler_sock, fast_sock],
                heartbeat_interval=0.3,  # speculate after ~1.2s < the 4s delay
            )
            assert result.frontier == serial
            assert result.stats.speculative_dispatches >= 1
            assert result.stats.duplicate_results >= 1
            # Speculation is not a failure: the straggler answered probes.
            assert not any(
                fault.kind == "heartbeat" for fault in result.faults
            )
        finally:
            stop_worker(straggler)
            stop_worker(fast)

    def test_degrades_to_local_when_all_workers_fail(
        self, tmp_path, serial_frontier
    ):
        """Drill 5: every worker dead — the driver finishes the run itself."""
        tableau, serial = serial_frontier
        result = run_pipeline(
            tableau,
            TW1,
            max_extra_atoms=0,
            fabric=[
                str(tmp_path / "ghost-a.sock"),
                str(tmp_path / "ghost-b.sock"),
            ],
            heartbeat_interval=0.2,
        )
        assert result.frontier == serial
        assert result.stats.fabric_local_shards > 0
        assert result.stats.workers_blacklisted == 2
        assert all(fault.kind == "connection" for fault in result.faults)


# --------------------------------------------------------------------------
# Garble drill and shipped-kernel plumbing
# --------------------------------------------------------------------------


class TestFabricPlumbing:
    def test_garbled_frame_is_a_connection_fault(
        self, tmp_path, serial_frontier
    ):
        """A worker emitting a non-protocol frame loses the shard, once."""
        tableau, serial = serial_frontier
        token = str(tmp_path / "token")
        garbler, garbler_sock = start_worker(
            tmp_path,
            "garbler",
            "--fault-kind",
            "garble-frame",
            "--fault-token",
            token,
        )
        try:
            result = run_pipeline(
                tableau,
                TW1,
                max_extra_atoms=0,
                fabric=[garbler_sock],
                heartbeat_interval=0.5,
            )
            assert os.path.exists(token)
            assert result.frontier == serial
            assert any(fault.kind == "connection" for fault in result.faults)
            # The same worker, re-dispatched, completed the shard: the
            # token discipline keeps the drill to one firing.
            assert result.stats.shard_retries >= 1
            assert result.stats.fabric_local_shards == 0
        finally:
            stop_worker(garbler)

    def test_redispatched_shard_served_from_worker_cache(
        self, tmp_path, serial_frontier
    ):
        """A lost response is re-dispatched to the same worker, which
        re-serves its memoized shard result instead of recomputing —
        the speculation-adjacent path the worker-side result cache exists
        for (the shard was computed; only its *response* was lost)."""
        tableau, serial = serial_frontier
        token = str(tmp_path / "token")
        worker, worker_sock = start_worker(
            tmp_path,
            "dropper",
            "--fault-kind",
            "drop-connection",
            "--fault-token",
            token,
        )
        try:
            result = run_pipeline(
                tableau,
                TW1,
                max_extra_atoms=0,
                fabric=[worker_sock],
                heartbeat_interval=0.5,
            )
            assert os.path.exists(token)
            assert result.frontier == serial
            assert result.stats.shard_retries >= 1
            # The absorbed shard stats carry the worker's memo hit: the
            # re-dispatched shard was re-served, not recomputed.
            assert result.stats.shard_cache_hits >= 1
            assert result.stats.fabric_local_shards == 0
        finally:
            stop_worker(worker)

    def test_in_process_fabric_matches_serial(self, serial_frontier):
        """Threaded in-process workers: the no-subprocess happy path."""
        tableau, serial = serial_frontier
        from threading import Thread

        servers = [WorkerServer("127.0.0.1:0") for _ in range(2)]
        for server in servers:
            Thread(target=server.serve_forever, daemon=True).start()
        try:
            result = run_pipeline(
                tableau,
                TW1,
                max_extra_atoms=0,
                fabric=[server.address for server in servers],
            )
            assert result.frontier == serial
            assert not result.faults
            assert result.stats.fabric_local_shards == 0
        finally:
            for server in servers:
                server.close()

    def test_shipped_kernel_tries_reach_the_merge(self, serial_frontier):
        """Shard results carry kernel tries; the reduce side uses them."""
        tableau, _ = serial_frontier
        result = run_pipeline(
            tableau, TW1, max_extra_atoms=0, workers=2
        )
        assert result.stats.kernel_trie_hits > 0
        assert result.stats.shards > 0


# --------------------------------------------------------------------------
# Recovered faults leave the answer complete
# --------------------------------------------------------------------------


@contextlib.contextmanager
def killed_worker_fabric(tmp_path):
    """Two workers, the first SIGKILL'd while it holds its first shard
    (drill 1's discipline); yields their addresses."""
    token = str(tmp_path / "token")
    victim, victim_sock = start_worker(
        tmp_path,
        "victim",
        "--fault-kind",
        "delay-response",
        "--fault-token",
        token,
        "--fault-delay",
        "30",
    )
    survivor, survivor_sock = start_worker(tmp_path, "survivor")

    def kill_when_parked():
        deadline = time.monotonic() + 60
        while not os.path.exists(token):
            if time.monotonic() > deadline:
                return
            time.sleep(0.02)
        victim.kill()

    from threading import Thread

    killer = Thread(target=kill_when_parked, daemon=True)
    killer.start()
    try:
        yield [victim_sock, survivor_sock]
        killer.join(timeout=60)
        assert os.path.exists(token), "the victim never reached a shard"
    finally:
        stop_worker(victim)
        stop_worker(survivor)


@pytest.mark.slow
class TestRecoveredFaultsAreComplete:
    def test_server_caches_a_run_that_lost_a_worker(
        self, tmp_path, monkeypatch
    ):
        import repro.serve.server as server_module
        from repro.serve.server import ApproximationServer, ServerConfig

        server = ApproximationServer(
            ServerConfig(socket_path=str(tmp_path / "s.sock"), max_extra_atoms=0)
        )
        request = {"op": "approximate", "query": str(QUERY), "all": True}
        with killed_worker_fabric(tmp_path) as addresses:
            real = server_module.all_approximations

            def over_fabric(query, cls, config, **kwargs):
                config = dataclasses.replace(
                    config,
                    fabric_workers=tuple(addresses),
                    heartbeat_interval=0.5,
                )
                return real(query, cls, config, **kwargs)

            monkeypatch.setattr(server_module, "all_approximations", over_fabric)
            cold = server._serve_approximate(request)
        assert not cold["cached"] and cold["quarantined"] == 0
        assert not cold["faults"]
        assert server.fault_counters["shard_faults"] >= 1
        warm = server._serve_approximate(request)
        assert warm["cached"]
        assert warm["approximations"] == cold["approximations"]

    def test_cli_lists_recovered_faults_without_warning(
        self, tmp_path, capsys, serial_frontier
    ):
        from repro.cli import main

        with killed_worker_fabric(tmp_path) as addresses:
            argv = ["approximate", str(QUERY), "--all", "--json"]
            for address in addresses:
                argv += ["--fabric-worker", address]
            assert main(argv + ["--heartbeat-interval", "0.5"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["quarantined"] == 0
        assert any(fault["kind"] == "connection" for fault in payload["faults"])
        assert "warning" not in captured.err
        serial = main(["approximate", str(QUERY), "--all", "--json"])
        assert serial == 0
        clean = json.loads(capsys.readouterr().out)
        assert payload["approximations"] == clean["approximations"]
