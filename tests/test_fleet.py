"""Tests for the supervised serving fleet (:mod:`repro.serve.fleet`).

Covers the supervisor + router end to end: lifecycle (spawn N workers,
route, rolling drain), crash healing (``SIGKILL`` mid-replay → zero
failed client requests, the victim slot's generation advances),
liveness conviction (a ``SIGSTOP``'d worker still *accepts* connections,
so only the missing pong convicts it), the restart-storm circuit breaker
(structured degraded mode, the fleet keeps serving on the survivor),
the router's retry path (armed ``drop-connection``) and hedging path
(armed ``delay-response`` — safe because requests are idempotent under
the canonical result key), and the client-side :class:`~repro.serve.
RetryPolicy`.

Fleets are hosted in-process on a background event loop
(:class:`~repro.testing.chaos.HostedFleet` — the same harness the chaos
sweep drives), but every *worker* is a real ``repro serve`` subprocess.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time

import pytest

from repro.serve import FleetConfig, RetryPolicy, ServeClient, ServerConfig
from repro.testing.chaos import HostedFleet
from repro.testing.faults import FaultPlan

TRIANGLE = "Q() :- E(x,y), E(y,z), E(z,x)"
TRIANGLE_RENAMED = "Q() :- E(b,c), E(c,a), E(a,b)"
SQUARE = "Q() :- E(a,b), E(b,c), E(c,d), E(d,a)"


def _fleet_config(tmp_path, **overrides) -> FleetConfig:
    defaults = dict(
        workers=2,
        socket_path=str(tmp_path / "fleet.sock"),
        run_dir=str(tmp_path),
        worker=ServerConfig(
            cache_dir=str(tmp_path / "cache"),
            max_extra_atoms=0,
            enable_test_ops=True,
        ),
        health_interval=0.2,
        health_timeout=0.8,
        restart_backoff_base=0.1,
        restart_backoff_cap=0.5,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _await(predicate, deadline=60.0, interval=0.1):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached before deadline")


class TestRetryPolicy:
    def test_delay_is_capped_exponential_with_jitter(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.4, jitter=0.5)
        rng = random.Random(7)
        delays = [policy.delay(attempt, rng) for attempt in range(5)]
        # Attempt n's base is min(cap, base * 2**n); jitter adds at most
        # 50% on top, never subtracts.
        for attempt, delay in enumerate(delays):
            base = min(0.4, 0.1 * 2**attempt)
            assert base <= delay <= base * 1.5
        assert delays[4] <= 0.6  # capped

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)

    def test_client_with_policy_connects_lazily(self, tmp_path):
        # No server exists: the eager (no-policy) constructor raises, the
        # lazy (policy) constructor defers failure to the first request.
        missing = str(tmp_path / "nothing.sock")
        with pytest.raises((OSError, ConnectionError)):
            ServeClient(missing)
        client = ServeClient(
            missing, retry=RetryPolicy(max_attempts=2, backoff_base=0.01)
        )
        with pytest.raises((OSError, ConnectionError)):
            client.request({"op": "stats"})
        assert client.retries >= 1  # the policy did resend before giving up


class TestFleetLifecycle:
    def test_serves_and_drains(self, tmp_path):
        with HostedFleet(_fleet_config(tmp_path)) as hosted:
            with hosted.client() as client:
                stats = client.stats()
                assert stats["role"] == "fleet"
                assert stats["live_workers"] == 2
                assert len(stats["slots"]) == 2

                cold = client.approximate(TRIANGLE, "TW1", method="exact")
                assert cold["ok"] and not cold["cached"]
                warm = client.approximate(
                    TRIANGLE_RENAMED, "TW1", method="exact"
                )
                assert warm["ok"]
                # Canonical result key: the renamed phrasing is warm and
                # bit-identical — whichever worker served it.
                assert warm["cached"]
                assert warm["approximations"] == cold["approximations"]
        # __exit__ asserts the drain completed; the socket is gone.
        assert not os.path.exists(hosted.config.socket_path)

    def test_stats_probe_reaches_workers(self, tmp_path):
        with HostedFleet(_fleet_config(tmp_path)) as hosted:
            with hosted.client() as client:
                client.approximate(TRIANGLE, "TW1", method="exact")
                stats = client.stats()
            worker_stats = stats["worker_stats"]
            assert len(worker_stats) == 2
            served = sum(w["served"] for w in worker_stats.values())
            assert served >= 1
            for w in worker_stats.values():
                assert "cache_resident_bytes" in w

    def test_refuses_new_work_while_draining(self, tmp_path):
        # Plain clients throughout: "shutting-down" is a retryable kind,
        # so a policy-carrying client would loop instead of surfacing it.
        # An in-flight sleep op holds the drain open (the router finishes
        # in-flight work before closing connections), making the refusal
        # window deterministic for the pre-existing probe connection.
        with HostedFleet(_fleet_config(tmp_path)) as hosted:
            path = hosted.config.socket_path
            with ServeClient(path) as probe:
                holder = ServeClient(path)
                in_flight: dict = {}

                def hold():
                    in_flight["response"] = holder.request(
                        {"op": "sleep", "seconds": 1.5}, check=False
                    )

                thread = threading.Thread(target=hold)
                thread.start()
                time.sleep(0.3)  # the sleep op is now active in a worker
                with ServeClient(path) as admin:
                    assert admin.shutdown()["ok"]
                refused = probe.request(
                    {"op": "approximate", "query": TRIANGLE}, check=False
                )
                assert not refused["ok"]
                assert refused["error"]["kind"] == "shutting-down"
                thread.join(timeout=30)
                holder.close()
                # The drain completed the in-flight request, not cut it.
                assert in_flight["response"]["ok"]


class TestCrashHealing:
    def test_sigkill_mid_replay_zero_failures(self, tmp_path):
        with HostedFleet(_fleet_config(tmp_path)) as hosted:
            with hosted.client() as client:
                queries = [TRIANGLE, SQUARE, TRIANGLE_RENAMED] * 2
                before = client.stats()
                victim = before["slots"][0]
                for index, query in enumerate(queries):
                    if index == 2:
                        os.kill(victim["pid"], signal.SIGKILL)
                    response = client.approximate(
                        query, "TW1", method="exact", check=False
                    )
                    assert response["ok"], response  # zero failed requests
                _await(
                    lambda: client.stats()["slots"][0]["generation"]
                    >= victim["generation"] + 1
                    and client.stats()["live_workers"] == 2
                )
                after = client.stats()
        assert after["worker_deaths"] >= 1
        assert after["worker_restarts"] >= 1
        assert not any(slot["degraded"] for slot in after["slots"])

    def test_sigstop_convicted_by_missing_pong(self, tmp_path):
        # A SIGSTOP'd worker still accepts connections (the kernel
        # backlog answers the connect) — only the absent pong convicts.
        with HostedFleet(_fleet_config(tmp_path)) as hosted:
            with hosted.client() as client:
                before = client.stats()
                victim = before["slots"][1]
                os.kill(victim["pid"], signal.SIGSTOP)
                try:
                    _await(
                        lambda: client.stats()["slots"][1]["generation"]
                        >= victim["generation"] + 1
                    )
                    after = client.stats()
                finally:
                    try:
                        os.kill(victim["pid"], signal.SIGCONT)
                    except OSError:
                        pass
        assert after["worker_deaths"] >= 1

    def test_restart_storm_degrades_structurally(self, tmp_path):
        config = _fleet_config(tmp_path, max_restarts=1, restart_window=60.0)
        with HostedFleet(config) as hosted:
            with hosted.client() as client:
                first = client.stats()["slots"][0]
                os.kill(first["pid"], signal.SIGKILL)
                _await(
                    lambda: client.stats()["slots"][0]["generation"]
                    >= first["generation"] + 1
                    and client.stats()["slots"][0]["pid"] is not None
                )
                second = client.stats()["slots"][0]
                os.kill(second["pid"], signal.SIGKILL)
                # The second death inside the window trips the breaker:
                # structured degraded mode, not a silent crash loop.
                _await(lambda: client.stats()["slots"][0]["degraded"])
                state = client.stats()
                assert state["degraded_workers"] == 1
                reason = state["slots"][0]["degraded_reason"]
                assert "restart" in reason
                # The fleet keeps serving on the survivor.
                served = client.approximate(TRIANGLE, "TW1", method="exact")
                assert served["ok"]


class TestRouterResilience:
    def _armed_config(self, tmp_path, kind, **overrides):
        token = str(tmp_path / "token")
        config = _fleet_config(tmp_path, **overrides)
        config.worker_fault_plans = {0: FaultPlan(kind, 1, token, delay=5.0)}
        return config, token

    def test_drop_connection_retried_on_other_worker(self, tmp_path):
        config, token = self._armed_config(tmp_path, "drop-connection")
        with HostedFleet(config) as hosted:
            with hosted.client() as client:
                response = client.approximate(
                    TRIANGLE, "TW1", method="exact"
                )
                assert response["ok"]
                stats = client.stats()
        assert os.path.exists(token)  # the fault really fired
        assert stats["router_retries"] >= 1
        assert client.retries == 0  # invisible to the client

    def test_straggler_hedged_first_response_wins(self, tmp_path):
        config, token = self._armed_config(
            tmp_path, "delay-response", hedge_after=0.3
        )
        with HostedFleet(config) as hosted:
            with hosted.client() as client:
                started = time.perf_counter()
                response = client.approximate(
                    TRIANGLE, "TW1", method="exact"
                )
                elapsed = time.perf_counter() - started
                assert response["ok"]
                stats = client.stats()
        assert os.path.exists(token)
        assert stats["hedges"] >= 1
        assert stats["hedge_wins"] >= 1
        # The hedge answered long before the 5s straggler would have.
        assert elapsed < 4.0


class TestFleetCLI:
    def test_fleet_validates_socket_or_host(self, capsys):
        from repro.cli import main

        assert main(["fleet"]) == 2
        assert main(["fleet", "--host", "127.0.0.1"]) == 2

    def test_client_connection_failure_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "client",
                "--socket",
                str(tmp_path / "nothing.sock"),
                "--server-stats",
                "--json",
            ]
        )
        assert code == 3  # distinct from ServeError (1) and usage (2)
        payload = capsys.readouterr().out
        assert '"kind": "connection"' in payload


class TestWorkerConfig:
    def test_worker_policy_is_validated_at_construction(self, tmp_path):
        for field in ("queue_limit", "concurrency"):
            with pytest.raises(ValueError, match=field):
                FleetConfig(
                    socket_path=str(tmp_path / "fleet.sock"),
                    worker=ServerConfig(**{field: 0}),
                )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("socket_path", "/run/w.sock"),
            ("host", "127.0.0.1"),
            ("port", 8000),
            ("fault_plan", FaultPlan("kill", 1, "/run/token")),
        ],
    )
    def test_worker_takes_no_address_or_drill(self, tmp_path, field, value):
        with pytest.raises(ValueError, match="worker takes no address"):
            FleetConfig(
                socket_path=str(tmp_path / "fleet.sock"),
                worker=ServerConfig(**{field: value}),
            )

    @pytest.mark.parametrize(
        "flag", ["--queue-limit", "--concurrency", "--cache-capacity"]
    )
    def test_fleet_cli_rejects_a_zero_worker_bound(self, tmp_path, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--socket", str(tmp_path / "fleet.sock"), flag, "0"])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_worker_command_round_trips_through_the_serve_parser(self, tmp_path):
        import dataclasses
        import sys

        from repro.cli import _build_parser, _server_config
        from repro.serve import Fleet
        from repro.serve.server import POLICY_FLAGS, SERVER_FLAGS

        forwarded = POLICY_FLAGS + SERVER_FLAGS
        # Every field but the address and the drill is forwarded.
        assert {flag.field for flag in forwarded} == {
            field.name for field in dataclasses.fields(ServerConfig)
        } - {"socket_path", "host", "port", "fault_plan"}
        worker = ServerConfig(
            queue_limit=7,
            concurrency=3,
            request_deadline=2.5,
            memory_limit=3 << 20,
            max_candidates=500,
            exact_limit=7,
            max_extra_atoms=0,
            workers=2,
            shard_timeout=4.5,
            cache_capacity=9,
            cache_max_bytes=1 << 20,
            cache_dir=str(tmp_path / "cache"),
            enable_test_ops=True,
        )
        for flag in forwarded:
            assert getattr(worker, flag.field) != flag.default, flag.field
        drill = FaultPlan("drop-connection", 2, str(tmp_path / "token"), delay=3.0)
        fleet = Fleet(
            FleetConfig(
                socket_path=str(tmp_path / "fleet.sock"),
                worker=worker,
                worker_fault_plans={0: drill},
            )
        )
        armed, clean = (fleet._worker_command(slot) for slot in fleet.slots)
        assert armed[:4] == clean[:4] == [sys.executable, "-m", "repro", "serve"]
        for command, slot, plan in zip((armed, clean), fleet.slots, (drill, None)):
            parsed = _server_config(_build_parser().parse_args(command[3:]))
            assert parsed == dataclasses.replace(
                worker, socket_path=slot.socket_path, fault_plan=plan
            )
        fleet.slots[0].generation = 1  # a restarted worker comes back clean
        assert fleet._worker_command(fleet.slots[0]) == armed[: len(clean)]
