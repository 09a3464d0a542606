"""Deterministic chaos sweep over the serving fleet and the shard fabric.

Every scenario is derived from one integer seed (`python -m
repro.testing.chaos --count 20` replays seeds ``seed_base .. +count``),
composes one or two faults from the existing :class:`~repro.testing.
faults.FaultPlan` vocabulary — worker ``SIGKILL``/``SIGSTOP``, cache
``corrupt``, and the armed network kinds ``drop-connection`` /
``delay-response`` / ``garble-frame`` — and replays a renamed-query
workload through the faulted system while asserting the four system
invariants:

1. **zero wrong answers** — an unflagged response is bit-identical to
   the expected (canonical) answer of its query;
2. **partial results are explicitly flagged** — a response may deviate
   only by carrying ``exhausted``/``faults``/``quarantined`` markers;
3. **eventual completion** — every request ends in an ``ok`` response
   (through the client retry policy and the router's retry/hedge paths),
   and a fleet hurt by an external fault restores full capacity;
4. **warm ≡ cold** — a ``cached`` response is bit-identical to the cold
   answer (the canonical result key's contract).

A failing scenario raises :class:`ChaosFailure` naming the seed and the
fault composition that broke it, so ``--seed-base <seed> --count 1``
reproduces exactly that run.

Mechanically, scenarios come in three shapes:

* **fleet / external** — one long-lived shared fleet (2 workers, shared
  disk cache, hedging on); the driver injects real signals
  (``SIGKILL``/``SIGSTOP`` on a worker pid) or corrupts a disk-cache
  entry mid-replay, then waits for the supervisor to restore capacity.
  The fleet self-heals between scenarios, which is itself part of the
  drill.
* **fleet / armed** — a fresh fleet whose target worker is started with
  ``--fault-kind`` so the ``at_check``-th response is dropped, delayed,
  or garbled; the router's retry (drop/garble) and hedge (delay) paths
  must absorb it invisibly.
* **fabric** — in-process :class:`~repro.fabric.WorkerServer` pairs
  under :func:`~repro.core.run_pipeline`, armed with the same network
  kinds (plus a dead address), asserting the final frontier is
  hom-equivalent to the serial run.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import tempfile
import threading
import time
from dataclasses import dataclass

from repro.testing.faults import NETWORK_KINDS, FaultPlan

__all__ = ["ChaosFailure", "ChaosScenario", "run_sweep", "scenario_from_seed"]

#: Externally-injected fleet faults (real signals / real disk damage).
FLEET_EXTERNAL = ("kill", "stop", "corrupt-entry")
#: Fabric drills (armed network kinds, a dead address, or nothing).
FABRIC_FAULTS = NETWORK_KINDS + ("dead-address", "none")

_TEMPLATE_SPECS = ((4, ()), (5, ()), (6, ((0, 3),)))
_ARMED_DELAY = 3.0


class ChaosFailure(AssertionError):
    """An invariant broke; the message names the seed and composition."""


@dataclass(frozen=True)
class ChaosScenario:
    """One seeded, reproducible fault composition plus its workload."""

    seed: int
    layer: str  # "fleet" | "fabric"
    mode: str  # "external" | "armed" | "fabric"
    faults: tuple[str, ...]
    target: int  # victim worker slot
    at_request: int  # external: inject before this request index
    at_check: int  # armed: seam invocation that fires
    shuffle_seed: int

    def label(self) -> str:
        return (
            f"seed={self.seed} layer={self.layer} mode={self.mode} "
            f"faults={'+'.join(self.faults)} target={self.target}"
        )

    def fail(self, invariant: str, detail: str) -> "ChaosFailure":
        return ChaosFailure(
            f"chaos scenario [{self.label()}] broke invariant "
            f"'{invariant}': {detail} — reproduce with "
            f"`python -m repro.testing.chaos --seed-base {self.seed} "
            f"--count 1`"
        )


def scenario_from_seed(seed: int) -> ChaosScenario:
    """The deterministic seed -> scenario map (pure; no I/O)."""
    rng = random.Random(seed)
    if rng.random() < 0.3:
        fault = FABRIC_FAULTS[rng.randrange(len(FABRIC_FAULTS))]
        return ChaosScenario(
            seed=seed,
            layer="fabric",
            mode="fabric",
            faults=(fault,),
            target=rng.randrange(2),
            at_request=0,
            at_check=1 + rng.randrange(2),
            shuffle_seed=rng.randrange(1 << 30),
        )
    if rng.random() < 0.35:
        fault = NETWORK_KINDS[rng.randrange(len(NETWORK_KINDS))]
        return ChaosScenario(
            seed=seed,
            layer="fleet",
            mode="armed",
            faults=(fault,),
            target=rng.randrange(2),
            at_request=0,
            at_check=1 + rng.randrange(2),
            shuffle_seed=rng.randrange(1 << 30),
        )
    count = 2 if rng.random() < 0.35 else 1
    faults = tuple(rng.sample(FLEET_EXTERNAL, count))
    return ChaosScenario(
        seed=seed,
        layer="fleet",
        mode="external",
        faults=faults,
        target=rng.randrange(2),
        at_request=1 + rng.randrange(3),
        at_check=1,
        shuffle_seed=rng.randrange(1 << 30),
    )


# --------------------------------------------------------------------------
# Workload + expected answers
# --------------------------------------------------------------------------


def _templates():
    from repro.workloads import cycle_with_chords

    return [cycle_with_chords(n, chords) for n, chords in _TEMPLATE_SPECS]


def _rename(query, rng: random.Random) -> str:
    from repro.cq import ConjunctiveQuery

    variables = sorted(query.tableau().structure.domain, key=repr)
    shuffled = list(range(len(variables)))
    rng.shuffle(shuffled)
    mapping = {v: f"c{shuffled[i]}" for i, v in enumerate(variables)}
    return str(ConjunctiveQuery.from_tableau(query.tableau().rename(mapping)))


def _expected_answers(templates) -> list[list[str]]:
    """What the serving path must answer, computed serverless once.

    Mirrors ``ApproximationServer._serve_approximate`` exactly: the
    pipeline runs on the canonical representative of the query's core,
    which is what makes the expectation phrasing-invariant and the
    bit-identity assertions meaningful.
    """
    from repro.core import ApproximationConfig, TreewidthClass, approximate
    from repro.cq import ConjunctiveQuery
    from repro.serve.cache import canonical_representative

    config = ApproximationConfig(max_extra_atoms=0)
    answers = []
    for template in templates:
        core = canonical_representative(template.tableau())
        core_query = ConjunctiveQuery.from_tableau(core, prefix="v")
        result = approximate(
            core_query, TreewidthClass(1), method="exact", config=config
        )
        answers.append([str(result)])
    return answers


def _workload(
    templates, scenario: ChaosScenario, repeats: int = 2
) -> list[tuple[int, str]]:
    """``repeats`` renamed phrasings of every template, seed-shuffled."""
    rng = random.Random(scenario.shuffle_seed)
    requests = [
        (index, _rename(template, rng))
        for index, template in enumerate(templates)
        for _ in range(repeats)
    ]
    rng.shuffle(requests)
    return requests


# --------------------------------------------------------------------------
# Fleet hosting
# --------------------------------------------------------------------------


class HostedFleet:
    """A :class:`~repro.serve.Fleet` on a background event-loop thread."""

    def __init__(self, config) -> None:
        from repro.serve import Fleet

        self.config = config
        self.fleet = Fleet(config)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._host, daemon=True)

    def _host(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.fleet.run())
        self.loop.close()

    def __enter__(self) -> "HostedFleet":
        from repro.serve import wait_for_server

        self.thread.start()
        wait_for_server(self.config.socket_path, deadline=120.0)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.fleet.request_shutdown)
        self.thread.join(timeout=120)
        assert not self.thread.is_alive(), "fleet failed to drain"

    def client(self, **kwargs):
        from repro.serve import RetryPolicy, ServeClient

        kwargs.setdefault(
            "retry",
            RetryPolicy(max_attempts=10, backoff_base=0.05, backoff_cap=1.0),
        )
        kwargs.setdefault("timeout", 120.0)
        return ServeClient(self.config.socket_path, **kwargs)


def _shared_fleet_config(tmp: str, *, hedge_after: float = 1.0):
    from repro.serve import FleetConfig, ServerConfig

    return FleetConfig(
        workers=2,
        socket_path=os.path.join(tmp, "fleet.sock"),
        run_dir=tmp,
        worker=ServerConfig(
            cache_dir=os.path.join(tmp, "cache"),
            max_extra_atoms=0,
            enable_test_ops=True,
        ),
        health_interval=0.2,
        health_timeout=0.8,
        restart_backoff_base=0.1,
        restart_backoff_cap=0.5,
        # The sweep reuses one fleet across many externally-injected
        # deaths; the storm breaker is drilled separately (test_fleet),
        # so here the window is kept short and the cap generous.
        max_restarts=100,
        restart_window=5.0,
        hedge_after=hedge_after,
    )


# --------------------------------------------------------------------------
# Scenario execution
# --------------------------------------------------------------------------


def _check_response(
    scenario: ChaosScenario, response: dict, expected: list[str]
) -> None:
    if not response.get("ok"):
        raise scenario.fail(
            "eventual completion",
            f"request ended in a non-ok response: {response.get('error')}",
        )
    flagged = bool(
        response.get("exhausted")
        or response.get("faults")
        or response.get("quarantined")
    )
    answers = response.get("approximations")
    if answers != expected:
        if not flagged:
            raise scenario.fail(
                "zero wrong answers",
                f"unflagged response {answers!r} != expected {expected!r}",
            )
        # Flagged-partial deviation is invariant 2 working as designed.
    if response.get("cached") and answers != expected:
        raise scenario.fail(
            "warm == cold",
            f"cached response {answers!r} != cold answer {expected!r}",
        )


def _inject_external(
    scenario: ChaosScenario, fault: str, hosted: HostedFleet, stats: dict
) -> int | None:
    """Apply one external fault; returns a SIGSTOP'd pid (for cleanup)."""
    slots = stats["slots"]
    victim = slots[scenario.target % len(slots)]
    pid = victim["pid"]
    if fault == "kill":
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        return None
    if fault == "stop":
        if pid is not None:
            try:
                os.kill(pid, signal.SIGSTOP)
            except OSError:
                return None
            return pid
        return None
    # "corrupt-entry": damage one shared disk-cache entry in place.
    cache_dir = hosted.config.worker.cache_dir
    entries = sorted(
        name for name in os.listdir(cache_dir) if name.endswith(".entry")
    )
    if entries:
        choice = entries[scenario.shuffle_seed % len(entries)]
        token = os.path.join(
            cache_dir, f"chaos-token-{scenario.seed}-{choice}"
        )
        FaultPlan(
            "corrupt",
            1,
            token,
            corrupt_mode="garble" if scenario.shuffle_seed % 2 else "truncate",
        ).corrupt_file(os.path.join(cache_dir, choice))
    return None


def _await_capacity(
    scenario: ChaosScenario,
    client,
    workers: int,
    min_generations: dict[int, int] | None = None,
) -> dict:
    """Wait until every worker is live and (for signal faults) the victim
    slot's generation shows the supervisor actually replaced it — a
    SIGSTOP'd worker still *looks* alive until the probe discipline
    convicts it, so live-worker counts alone would pass vacuously."""
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        stats = client.stats()
        slots = stats["slots"]
        healthy = stats["live_workers"] >= workers and not any(
            slot["degraded"] for slot in slots
        )
        replaced = all(
            slots[index]["generation"] >= generation
            for index, generation in (min_generations or {}).items()
        )
        if healthy and replaced:
            return stats
        time.sleep(0.2)
    raise scenario.fail(
        "eventual completion",
        f"fleet capacity not restored: {stats['live_workers']} of "
        f"{workers} workers live, degraded "
        f"{[slot['degraded'] for slot in stats['slots']]}, generations "
        f"{[slot['generation'] for slot in stats['slots']]} "
        f"(required {min_generations})",
    )


def _run_fleet_external(
    scenario: ChaosScenario, hosted: HostedFleet, templates, expected
) -> str:
    stopped: list[int] = []
    requests = _workload(templates, scenario)
    try:
        with hosted.client() as client:
            pre_stats = client.stats()
            min_generations: dict[int, int] = {}
            if any(fault in ("kill", "stop") for fault in scenario.faults):
                victim = scenario.target % len(pre_stats["slots"])
                min_generations[victim] = (
                    pre_stats["slots"][victim]["generation"] + 1
                )
            pending = list(scenario.faults)
            for index, (template_index, text) in enumerate(requests):
                if index == scenario.at_request:
                    for fault in pending:
                        pid = _inject_external(
                            scenario, fault, hosted, pre_stats
                        )
                        if pid is not None:
                            stopped.append(pid)
                    pending = []
                response = client.approximate(
                    text, "TW1", method="exact", check=False
                )
                _check_response(
                    scenario, response, expected[template_index]
                )
            _await_capacity(
                scenario, client, hosted.config.workers, min_generations
            )
    finally:
        for pid in stopped:
            try:
                os.kill(pid, signal.SIGCONT)
            except OSError:
                pass
    return f"{len(requests)} requests ok, capacity restored"


def _run_fleet_armed(
    scenario: ChaosScenario, templates, expected
) -> str:
    fault = scenario.faults[0]
    with tempfile.TemporaryDirectory() as tmp:
        token = os.path.join(tmp, "token")
        config = _shared_fleet_config(
            tmp, hedge_after=0.75 if fault == "delay-response" else 1.0
        )
        config.worker_fault_plans = {
            scenario.target % config.workers: FaultPlan(
                kind=fault,
                at_check=scenario.at_check,
                token_path=token,
                delay=_ARMED_DELAY,
            )
        }
        with HostedFleet(config) as hosted:
            requests = _workload(templates, scenario)
            with hosted.client() as client:
                for template_index, text in requests:
                    response = client.approximate(
                        text, "TW1", method="exact", check=False
                    )
                    _check_response(
                        scenario, response, expected[template_index]
                    )
                stats = client.stats()
            fired = os.path.exists(token)
    if not fired:
        # The fault targeted a worker the router never picked for the
        # at_check-th response — the load simply never reached the seam;
        # nothing fired, nothing to assert beyond the invariants above.
        return f"{len(requests)} requests ok (fault never reached)"
    healed = (
        stats["hedges"] >= 1
        if fault == "delay-response"
        else stats["router_retries"] >= 1 or stats["worker_restarts"] >= 1
    )
    if not healed:
        raise scenario.fail(
            "eventual completion",
            f"armed {fault} fired but neither the retry nor the hedge "
            f"path shows in the router stats: {stats}",
        )
    return (
        f"{len(requests)} requests ok (fired; retries="
        f"{stats['router_retries']} hedges={stats['hedges']})"
    )


def _run_fabric(scenario: ChaosScenario, fabric_state) -> str:
    from threading import Thread

    from repro.core import TW1, run_pipeline
    from repro.fabric import WorkerServer
    from repro.homomorphism import hom_equivalent

    tableau, serial = fabric_state
    fault = scenario.faults[0]
    plans: list[FaultPlan | None] = [None, None]
    with tempfile.TemporaryDirectory() as tmp:
        if fault in NETWORK_KINDS:
            plans[scenario.target % 2] = FaultPlan(
                fault,
                scenario.at_check,
                os.path.join(tmp, "token"),
                delay=1.5,
            )
        servers = [
            WorkerServer("127.0.0.1:0", fault_plan=plan) for plan in plans
        ]
        for server in servers:
            Thread(target=server.serve_forever, daemon=True).start()
        addresses = [server.address for server in servers]
        if fault == "dead-address":
            addresses[scenario.target % 2] = os.path.join(tmp, "ghost.sock")
        try:
            result = run_pipeline(
                tableau,
                TW1,
                max_extra_atoms=0,
                fabric=addresses,
                heartbeat_interval=0.3,
            )
        finally:
            for server in servers:
                server.close()
    if len(result.frontier) != len(serial) or not all(
        any(hom_equivalent(member, other) for other in serial)
        for member in result.frontier
    ):
        raise scenario.fail(
            "zero wrong answers",
            "fabric frontier is not hom-equivalent to the serial run",
        )
    return (
        f"frontier ok ({len(result.frontier)} members; "
        f"retries={result.stats.shard_retries} "
        f"faults={[f.kind for f in result.faults]})"
    )


# --------------------------------------------------------------------------
# The sweep
# --------------------------------------------------------------------------


def run_sweep(
    count: int = 20, seed_base: int = 0, *, log=print
) -> list[dict]:
    """Run ``count`` seeded scenarios; raise :class:`ChaosFailure` on the
    first broken invariant.  Returns one record per scenario."""
    templates = _templates()
    log(f"chaos: computing expected answers for {len(templates)} templates")
    expected = _expected_answers(templates)
    scenarios = [scenario_from_seed(seed_base + i) for i in range(count)]

    fabric_state = None
    if any(s.layer == "fabric" for s in scenarios):
        from repro.core import TW1, run_pipeline
        from repro.workloads import cycle_with_chords

        fabric_query = cycle_with_chords(6)
        fabric_tableau = fabric_query.tableau()
        fabric_state = (
            fabric_tableau,
            run_pipeline(fabric_tableau, TW1, max_extra_atoms=0).frontier,
        )

    records: list[dict] = []
    shared: HostedFleet | None = None
    shared_tmp: tempfile.TemporaryDirectory | None = None
    try:
        for scenario in scenarios:
            started = time.perf_counter()
            if scenario.mode == "external":
                if shared is None:
                    shared_tmp = tempfile.TemporaryDirectory()
                    shared = HostedFleet(
                        _shared_fleet_config(shared_tmp.name)
                    )
                    shared.__enter__()
                outcome = _run_fleet_external(
                    scenario, shared, templates, expected
                )
            elif scenario.mode == "armed":
                outcome = _run_fleet_armed(scenario, templates, expected)
            else:
                outcome = _run_fabric(scenario, fabric_state)
            elapsed = time.perf_counter() - started
            records.append(
                {
                    "seed": scenario.seed,
                    "layer": scenario.layer,
                    "mode": scenario.mode,
                    "faults": list(scenario.faults),
                    "outcome": outcome,
                    "seconds": round(elapsed, 2),
                }
            )
            log(
                f"chaos: [{scenario.label()}] ok in {elapsed:.1f}s — "
                f"{outcome}"
            )
    finally:
        if shared is not None:
            shared.__exit__(None, None, None)
        if shared_tmp is not None:
            shared_tmp.cleanup()
    return records


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--seed-base", type=int, default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    records = run_sweep(args.count, args.seed_base)
    by_mode: dict[str, int] = {}
    for record in records:
        by_mode[record["mode"]] = by_mode.get(record["mode"], 0) + 1
    print(
        f"chaos: {len(records)} scenario(s) upheld all four invariants in "
        f"{time.perf_counter() - started:.1f}s "
        f"({', '.join(f'{mode}: {n}' for mode, n in sorted(by_mode.items()))})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
