"""Tests for the budgeted anytime pipeline and its fault tolerance.

Covers the :mod:`repro.runtime` budget/checkpoint primitives, the local
shard transport of :mod:`repro.parallel` under the shard coordinator, the
deterministic
fault-injection harness (:mod:`repro.testing.faults`), the pipeline-level
anytime semantics (partial frontiers are *sound*: every member passed its
class check and receives a homomorphism from the base), checkpoint/resume
bit-identity across crashes — including a real ``SIGKILL`` of the driver
process — and the CLI satellites.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import multiprocessing
import os
import signal
import time

import pytest

from repro.core import (
    DEFAULT_CONFIG,
    TW1,
    ApproximationConfig,
    HypertreeClass,
    TreewidthClass,
    run_pipeline,
)
from repro.core.pipeline import PipelineStats
from repro.homomorphism.engine import default_engine
from repro.fabric import FabricCoordinator
from repro.parallel import ProcessExecutor
from repro.runtime import CheckpointManager, CheckpointMismatch, RunBudget
from repro.runtime.budget import MEMORY_PROBE_INTERVAL
from repro.testing import FaultInjected, FaultPlan, FaultyClass
from repro.workloads import cycle_with_chords

HTW2 = HypertreeClass(2)
TW2 = TreewidthClass(2)
LIGHT = cycle_with_chords(6)
MEMBER_HEAVY = cycle_with_chords(8, ((0, 3), (1, 4), (2, 6)))
CHORDED_7 = cycle_with_chords(7, ((0, 3), (1, 4), (2, 5)))


def _sound(base_tableau, cls, frontier) -> bool:
    """Every frontier member is a class member receiving hom(base → m)."""
    engine = default_engine()
    return all(
        cls.contains_tableau(member) and engine.hom_le(base_tableau, member)
        for member in frontier
    )


# --------------------------------------------------------------------------
# RunBudget unit behavior
# --------------------------------------------------------------------------


class TestRunBudget:
    def test_inactive_without_limits(self):
        budget = RunBudget()
        assert not budget.active
        assert budget.exceeded() is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline": 0.0},
            {"deadline": -1.0},
            {"memory_limit": 0},
            {"max_candidates": -5},
            {"max_checks": 0},
        ],
    )
    def test_rejects_non_positive_limits(self, kwargs):
        with pytest.raises(ValueError):
            RunBudget(**kwargs)

    def test_deadline_uses_injected_clock(self):
        ticks = itertools.count()
        budget = RunBudget(deadline=5.0, clock=lambda: float(next(ticks)))
        budget.start()  # consumes tick 0
        assert budget.exceeded() is None  # elapsed 1
        for _ in range(10):
            verdict = budget.exceeded()
            if verdict is not None:
                break
        assert verdict == "deadline (5s) exceeded"

    def test_start_anchors_at_an_earlier_clock_reading(self):
        now = [10.0]
        budget = RunBudget(deadline=1.0, clock=lambda: now[0])
        budget.start(9.5)
        budget.start()  # idempotent: the earlier anchor stays
        assert budget.exceeded() is None
        now[0] = 10.6
        assert budget.exceeded() == "deadline (1s) exceeded"

    def test_reason_is_sticky_across_dimensions(self):
        # Once one dimension trips, later calls keep reporting it even if
        # another dimension would also trip — every pipeline seam sees one
        # consistent exhaustion event.
        budget = RunBudget(max_candidates=1, max_checks=1)
        stats = PipelineStats()
        stats.generated = 5
        first = budget.exceeded(stats)
        assert "candidate budget" in first
        stats.checks_run = 100
        assert budget.exceeded(stats) == first
        assert budget.reason == first

    def test_memory_probe_is_amortized(self):
        calls = []
        budget = RunBudget(memory_limit=10**6, rss_probe=lambda: calls.append(1) or 0)
        for _ in range(2 * MEMORY_PROBE_INTERVAL):
            assert budget.exceeded() is None
        # Probed on call 1 and then every MEMORY_PROBE_INTERVAL-th call.
        assert len(calls) == 3

    def test_memory_trip_reports_usage(self):
        budget = RunBudget(memory_limit=1000, rss_probe=lambda: 2048)
        verdict = budget.exceeded()
        assert verdict == "memory ceiling (1000 bytes) reached at 2048 bytes"

    def test_tracked_probes_feed_the_ceiling(self):
        budget = RunBudget(memory_limit=1, rss_probe=lambda: 0)
        budget.register_probe(lambda: 7)
        assert budget.tracked_bytes() > 0
        assert "memory ceiling" in budget.exceeded()

    def test_remaining_deadline_floor(self):
        ticks = itertools.count()
        budget = RunBudget(deadline=2.0, clock=lambda: float(next(ticks)))
        budget.start()
        assert budget.remaining_deadline() == 1.0
        assert budget.remaining_deadline() == 0.0  # elapsed 2
        assert budget.remaining_deadline() == 0.0  # floored, never negative
        assert RunBudget().remaining_deadline() is None


# --------------------------------------------------------------------------
# CheckpointManager unit behavior
# --------------------------------------------------------------------------


class TestCheckpointManager:
    def test_roundtrip_and_finalize(self, tmp_path):
        path = tmp_path / "run.ckpt"
        manager = CheckpointManager(path)
        assert manager.load("key") is None
        manager.save("key", {"cursor": 3, "frontier": [1, 2]})
        loaded = CheckpointManager(path).load("key")
        assert loaded["cursor"] == 3 and loaded["frontier"] == [1, 2]
        assert not list(tmp_path.glob("*.tmp.*"))  # atomic: no temp residue
        manager.finalize()
        assert not path.exists()
        manager.finalize()  # idempotent

    def test_wrong_run_key_is_a_mismatch(self, tmp_path):
        path = tmp_path / "run.ckpt"
        CheckpointManager(path).save(("a", 1), {"cursor": 0})
        with pytest.raises(CheckpointMismatch):
            CheckpointManager(path).load(("b", 2))

    def test_corrupt_file_is_a_mismatch(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointMismatch):
            CheckpointManager(path).load("key")

    def test_maybe_save_cadence(self, tmp_path):
        ticks = itertools.count()
        manager = CheckpointManager(
            tmp_path / "run.ckpt",
            every_candidates=3,
            every_seconds=1e9,
            clock=lambda: float(next(ticks)) * 1e-6,
        )
        payloads = []

        def payload():
            payloads.append(1)
            return {"cursor": 0}

        saves = sum(manager.maybe_save("key", payload) for _ in range(10))
        assert saves == 3 == manager.saves
        # The payload builder only runs when a save is actually due.
        assert len(payloads) == 3


# --------------------------------------------------------------------------
# Fault plan / faulty class harness
# --------------------------------------------------------------------------


class TestFaultHarness:
    def test_claim_fires_exactly_once(self, tmp_path):
        plan = FaultPlan("raise", 1, str(tmp_path / "token"))
        assert plan.claim()
        assert not plan.claim()

    def test_invalid_plans_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            FaultPlan("explode", 1, str(tmp_path / "t"))
        with pytest.raises(ValueError):
            FaultPlan("raise", 0, str(tmp_path / "t"))

    def test_raise_fires_on_nth_check_only(self, tmp_path):
        faulty = FaultyClass(TW1, FaultPlan("raise", 3, str(tmp_path / "token")))
        triangle = cycle_with_chords(3).tableau()
        faulty.contains_tableau(triangle)
        faulty.contains_tableau(triangle)
        with pytest.raises(FaultInjected):
            faulty.contains_tableau(triangle)
        # Token consumed: the same count on a fresh copy no longer fires.
        again = FaultyClass(TW1, FaultPlan("raise", 1, str(tmp_path / "token")))
        assert isinstance(again.contains_tableau(triangle), bool)

    def test_delegates_class_surface(self, tmp_path):
        faulty = FaultyClass(HTW2, FaultPlan("raise", 99, str(tmp_path / "t")))
        assert faulty.kind == HTW2.kind
        assert faulty.name == HTW2.name


# --------------------------------------------------------------------------
# Local transport fault tolerance
# --------------------------------------------------------------------------


def _claim_token(token_path: str) -> bool:
    try:
        fd = os.open(token_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


#: Per-process drill script installed by :func:`_install_drill`:
#: shard index -> (action, argument, token path).
_DRILL: dict = {}


def _install_drill(script):
    """Slot initializer: per-process state, like the shard context."""
    _DRILL.clear()
    _DRILL.update(script)


def _drill_task(shard):
    """Slot task: scripted kill/sleep/raise on one shard, once per token."""
    index, _ = shard
    action, value, token_path = _DRILL.get(index, ("ok", 0, ""))
    if action == "kill" and _claim_token(token_path):
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "sleep" and _claim_token(token_path):
        time.sleep(value)
    elif action == "raise" and _claim_token(token_path):
        raise ValueError(f"boom {index}")
    return (index * 2, {})


def _run_drill(script, *, shards=6, timeout=None):
    """Run ``shards`` drill shards over two local slots: ``(results,
    coordinator, executor)``, results as ``{index: value}``."""
    shard_list = [(index, shards) for index in range(shards)]
    with ProcessExecutor(
        2,
        _drill_task,
        initializer=_install_drill,
        initargs=(script,),
        timeout=timeout,
    ) as executor:
        coordinator = FabricCoordinator(
            executor.slots, context=None, speculation_after=math.inf
        )
        results = {
            index: value
            for index, value, _ in executor.imap(coordinator.run, shard_list)
        }
    return results, coordinator, executor


@pytest.mark.slow
class TestLocalTransportFaults:
    """The local slots under the coordinator: every lost shard is retried."""

    def test_killed_slot_process_is_respawned_and_retried(self, tmp_path):
        token = str(tmp_path / "token")
        results, coordinator, executor = _run_drill({3: ("kill", 0, token)})
        assert results == {index: index * 2 for index in range(6)}
        assert executor.respawns == 1
        assert [fault.kind for fault in coordinator.faults] == ["connection"]
        assert coordinator.retries == 1 and coordinator.quarantined == 0

    def test_hung_slot_is_killed_and_retried(self, tmp_path):
        token = str(tmp_path / "token")
        started = time.monotonic()
        results, coordinator, executor = _run_drill(
            {2: ("sleep", 60.0, token)}, timeout=0.5
        )
        elapsed = time.monotonic() - started
        assert results == {index: index * 2 for index in range(6)}
        assert [fault.kind for fault in coordinator.faults] == ["deadline"]
        assert "0.5" in coordinator.faults[0].error
        assert executor.respawns == 1
        # The sleeping process was killed, not waited out.
        assert elapsed < 30.0

    def test_raising_shard_is_retried_without_respawn(self, tmp_path):
        token = str(tmp_path / "token")
        results, coordinator, executor = _run_drill({1: ("raise", 0, token)})
        assert results == {index: index * 2 for index in range(6)}
        assert [fault.kind for fault in coordinator.faults] == ["error"]
        assert "boom 1" in coordinator.faults[0].error
        # A raising task leaves its process up.
        assert executor.respawns == 0

    def test_exception_exit_leaves_no_live_child(self):
        with pytest.raises(RuntimeError):
            with ProcessExecutor(2, _drill_task) as executor:
                processes = [slot._process for slot in executor.slots]
                assert all(process.is_alive() for process in processes)
                raise RuntimeError("interrupted")
        assert not any(process.is_alive() for process in processes)
        assert not multiprocessing.active_children()


# --------------------------------------------------------------------------
# Pipeline-level anytime semantics
# --------------------------------------------------------------------------


class TestBudgetedPipeline:
    def test_unbudgeted_run_is_never_exhausted(self):
        result = run_pipeline(LIGHT.tableau(), TW1, max_extra_atoms=0)
        assert not result.stats.exhausted
        assert result.stats.exhaustion_reason == ""

    def test_generous_budget_is_invisible(self):
        tableau = LIGHT.tableau()
        baseline = run_pipeline(tableau, TW1, max_extra_atoms=0)
        budgeted = run_pipeline(
            tableau,
            TW1,
            max_extra_atoms=0,
            budget=RunBudget(
                deadline=3600.0, memory_limit=1 << 40, max_candidates=10**9
            ),
        )
        assert budgeted.frontier == baseline.frontier
        assert not budgeted.stats.exhausted

    def test_deadline_returns_sound_partial_frontier(self):
        # Insertion order + fake clock: the trip point is deterministic and
        # the best-so-far frontier is non-empty.
        tableau = LIGHT.tableau()
        ticks = itertools.count()
        budget = RunBudget(deadline=10.0, clock=lambda: next(ticks) * 0.5)
        result = run_pipeline(
            tableau,
            TW1,
            max_extra_atoms=0,
            admission_order="insertion",
            budget=budget,
        )
        assert result.stats.exhausted
        assert result.stats.exhaustion_reason == "deadline (10s) exceeded"
        assert len(result.frontier) >= 1
        assert result.stats.generated < 33  # stopped before the full stream
        assert _sound(tableau, TW1, result.frontier)

    @pytest.mark.parametrize("order", ["insertion", "auto"])
    def test_candidate_cap_stops_stage_one(self, order):
        tableau = LIGHT.tableau()
        result = run_pipeline(
            tableau,
            TW1,
            max_extra_atoms=0,
            admission_order=order,
            budget=RunBudget(max_candidates=25),
        )
        assert result.stats.exhausted
        assert result.stats.exhaustion_reason == "candidate budget (25) exhausted"
        assert result.stats.generated <= 25
        assert len(result.frontier) >= 1
        assert _sound(tableau, TW1, result.frontier)

    def test_memory_ceiling_trips_via_rss_probe(self):
        # Simulated OOM: an injected probe reporting a huge resident size.
        result = run_pipeline(
            LIGHT.tableau(),
            TW1,
            max_extra_atoms=0,
            budget=RunBudget(memory_limit=1000, rss_probe=lambda: 10**9),
        )
        assert result.stats.exhausted
        assert "memory ceiling" in result.stats.exhaustion_reason

    def test_tracked_entries_counts_every_resident_structure(self):
        from repro.core.pipeline import Frontier

        frontier = Frontier(stats=PipelineStats())
        assert frontier.tracked_entries() == 0
        for i, key in enumerate(itertools.product(range(4), repeat=2)):
            frontier._class_status[("class", key)] = ("checking", i)
        frontier._dominated_keys.update(dict.fromkeys("abc", False))
        frontier._refinement_index.add((0, 1, 0), None)
        assert frontier.tracked_entries() == 16 + 3 + 1

    @pytest.mark.parametrize(
        "workers", [1, pytest.param(2, marks=pytest.mark.slow)]
    )
    def test_peak_tracked_entries_reported(self, workers):
        # The per-process footprint the memory ceiling binds on reaches
        # the stats on both the inline and the sharded path.
        tableau = LIGHT.tableau()
        serial = run_pipeline(tableau, TW1, max_extra_atoms=0)
        result = run_pipeline(tableau, TW1, max_extra_atoms=0, workers=workers)
        assert result.frontier == serial.frontier
        assert result.stats.peak_tracked_entries >= len(result.frontier) > 0
        assert result.stats.peak_tracked_entries >= result.stats.checks_run

    def test_config_budget_construction(self):
        assert ApproximationConfig().budget() is None
        budget = ApproximationConfig(deadline=5.0, max_candidates=7).budget()
        assert budget is not None
        assert budget.deadline == 5.0 and budget.max_candidates == 7

    @pytest.mark.slow
    def test_pooled_deadline_drains_and_returns(self):
        tableau = MEMBER_HEAVY.tableau()
        started = time.monotonic()
        result = run_pipeline(
            tableau,
            HTW2,
            max_extra_atoms=0,
            workers=2,
            budget=RunBudget(deadline=0.1),
            shard_timeout=5.0,
        )
        elapsed = time.monotonic() - started
        assert result.stats.exhausted
        assert "deadline" in result.stats.exhaustion_reason
        assert _sound(tableau, HTW2, result.frontier)
        # Every shard stops at its share of the deadline instead of
        # running on: well under 2x the shard timeout past the deadline.
        assert elapsed < 0.1 + 2 * 5.0

    @pytest.mark.slow
    def test_pooled_generous_budget_bit_identical_to_serial(self):
        tableau = MEMBER_HEAVY.tableau()
        serial = run_pipeline(tableau, HTW2, max_extra_atoms=0)
        pooled = run_pipeline(
            tableau,
            HTW2,
            max_extra_atoms=0,
            workers=2,
            budget=RunBudget(deadline=3600.0, max_candidates=10**9),
        )
        assert pooled.frontier == serial.frontier
        assert not pooled.stats.exhausted


class TestShardDeadlineAnchor:
    """A local shard counts the deadline from the driver's freeze instant."""

    def test_deadline_spent_before_dispatch_trips_the_shard(self):
        from repro.core.pipeline import encode_tableau, run_shard

        spec = {
            "deadline": 5.0,
            "memory_limit": None,
            "max_candidates": None,
            "max_checks": None,
            "started_at": time.monotonic() - 10.0,
        }
        context = (
            encode_tableau(LIGHT.tableau()),
            HTW2,
            0,
            True,
            None,
            "fine_to_coarse",
            "canonical",
            spec,
        )
        _, stats = run_shard(context, (0, 2))
        assert stats["exhausted"]
        assert "deadline" in stats["exhaustion_reason"]
        assert stats["checks_run"] == 0


# --------------------------------------------------------------------------
# Pipeline-level fault recovery (faults injected at the check seam inside
# local pool shard tasks)
# --------------------------------------------------------------------------


@pytest.mark.slow
class TestPipelineFaultRecovery:
    def test_killed_worker_recovered_bit_identical_to_serial(self, tmp_path):
        tableau = MEMBER_HEAVY.tableau()
        serial = run_pipeline(tableau, HTW2, max_extra_atoms=0)
        faulty = FaultyClass(HTW2, FaultPlan("kill", 5, str(tmp_path / "token")))
        pooled = run_pipeline(tableau, faulty, max_extra_atoms=0, workers=2)
        # The dead slot process was respawned and its shard retried; the
        # claimed token keeps the retry from re-firing, so every shard
        # completes and the frontier is exactly the serial one.
        assert pooled.frontier == serial.frontier
        assert pooled.stats.pool_respawns >= 1
        assert pooled.stats.quarantined == 0
        assert [fault.kind for fault in pooled.faults] == ["connection"]

    def test_hung_shard_killed_and_retried(self, tmp_path):
        tableau = MEMBER_HEAVY.tableau()
        serial = run_pipeline(tableau, HTW2, max_extra_atoms=0)
        faulty = FaultyClass(
            HTW2, FaultPlan("delay", 5, str(tmp_path / "token"), delay=60.0)
        )
        started = time.monotonic()
        result = run_pipeline(
            tableau, faulty, max_extra_atoms=0, workers=2, shard_timeout=5.0
        )
        elapsed = time.monotonic() - started
        assert result.frontier == serial.frontier
        assert result.stats.quarantined == 0
        assert [fault.kind for fault in result.faults] == ["deadline"]
        assert result.stats.pool_respawns == 1
        # The sleeping process was killed, not waited out.
        assert elapsed < 30.0

    def test_poisoned_candidate_retried(self, tmp_path):
        tableau = MEMBER_HEAVY.tableau()
        serial = run_pipeline(tableau, HTW2, max_extra_atoms=0)
        faulty = FaultyClass(HTW2, FaultPlan("raise", 5, str(tmp_path / "token")))
        result = run_pipeline(tableau, faulty, max_extra_atoms=0, workers=2)
        assert result.frontier == serial.frontier
        assert result.stats.quarantined == 0
        assert [fault.kind for fault in result.faults] == ["error"]
        assert "FaultInjected" in result.faults[0].error
        # A raising task does not kill its process: no respawn needed.
        assert result.stats.pool_respawns == 0


class _PoisonedTW1(TreewidthClass):
    """TW1 whose check raises, on every attempt, for the 6-vertex graph.

    On :data:`LIGHT` (six variables) only the identity quotient has six
    blocks, so exactly one candidate — in one shard — is poisoned.
    """

    def __init__(self) -> None:
        super().__init__(1)

    def contains_adjacency(self, adjacency) -> bool:
        if len(adjacency) == 6:
            raise ValueError("poisoned check")
        return super().contains_adjacency(adjacency)


class TestAlwaysRaisingCheck:
    """A shard that raises on every attempt ends as a flagged fault."""

    def _assert_flagged(self, result, tableau, elapsed):
        assert result.stats.quarantined >= 1
        assert any(
            fault.kind == "error" and fault.worker == "driver"
            for fault in result.faults
        )
        assert all(fault.kind == "error" for fault in result.faults)
        assert _sound(tableau, TW1, result.frontier)
        assert elapsed < 60.0  # bounded retries, no loop

    @pytest.mark.slow
    def test_local_slots(self):
        tableau = LIGHT.tableau()
        started = time.monotonic()
        result = run_pipeline(
            tableau, _PoisonedTW1(), max_extra_atoms=0, workers=2
        )
        self._assert_flagged(result, tableau, time.monotonic() - started)
        assert result.stats.workers_blacklisted >= 1

    def test_one_worker_fabric(self):
        from threading import Thread

        from repro.fabric import WorkerServer

        tableau = LIGHT.tableau()
        server = WorkerServer("127.0.0.1:0")
        Thread(target=server.serve_forever, daemon=True).start()
        try:
            started = time.monotonic()
            result = run_pipeline(
                tableau,
                _PoisonedTW1(),
                max_extra_atoms=0,
                fabric=[server.address],
                heartbeat_interval=0.3,
            )
        finally:
            server.close()
        self._assert_flagged(result, tableau, time.monotonic() - started)
        assert result.stats.workers_blacklisted == 1


# --------------------------------------------------------------------------
# Checkpoint/resume
# --------------------------------------------------------------------------


def _manager(path) -> CheckpointManager:
    """A tight-cadence manager so small workloads checkpoint early."""
    return CheckpointManager(path, every_candidates=5, every_seconds=1e9)


class TestCheckpointResume:
    @pytest.mark.parametrize("order", ["insertion", "auto"])
    def test_crash_resume_is_bit_identical(self, tmp_path, order):
        tableau = LIGHT.tableau()
        clean = run_pipeline(
            tableau, TW1, max_extra_atoms=0, admission_order=order
        )
        path = tmp_path / "run.ckpt"
        faulty = FaultyClass(TW1, FaultPlan("raise", 10, str(tmp_path / "token")))
        manager = _manager(path)
        with pytest.raises(FaultInjected):
            run_pipeline(
                tableau,
                faulty,
                max_extra_atoms=0,
                admission_order=order,
                checkpoint=manager,
            )
        assert manager.saves >= 1 and path.exists()
        resumed = run_pipeline(
            tableau,
            TW1,
            max_extra_atoms=0,
            admission_order=order,
            checkpoint=_manager(path),
        )
        assert resumed.frontier == clean.frontier
        assert resumed.stats.resumed_candidates >= 5
        assert not path.exists()  # finalized on successful completion

    def test_sigkill_mid_run_resumes_bit_identical(self, tmp_path):
        # The real acceptance scenario: the *driver process* is killed
        # mid-enumeration (SIGKILL, no cleanup), and a fresh process picks
        # the run back up from the on-disk checkpoint.
        tableau = LIGHT.tableau()
        clean = run_pipeline(tableau, TW1, max_extra_atoms=0)
        path = tmp_path / "run.ckpt"
        plan = FaultPlan("kill", 10, str(tmp_path / "token"))

        def doomed():
            run_pipeline(
                tableau,
                FaultyClass(TW1, plan),
                max_extra_atoms=0,
                checkpoint=_manager(path),
            )

        process = multiprocessing.get_context("fork").Process(target=doomed)
        process.start()
        process.join(timeout=120)
        assert process.exitcode == -signal.SIGKILL
        assert path.exists()
        resumed = run_pipeline(
            tableau, TW1, max_extra_atoms=0, checkpoint=_manager(path)
        )
        assert resumed.frontier == clean.frontier
        assert resumed.stats.resumed_candidates >= 5

    def test_sigkill_resume_under_canonical_generation_order(self, tmp_path):
        # Canonical dedup is stateful (its seen-key set), so a resume must
        # replay the stream prefix rather than skip it at the source; the
        # resumed frontier is still bit-identical.
        tableau = LIGHT.tableau()
        kwargs = dict(
            max_extra_atoms=0, admission_order="generation", generation="canonical"
        )
        clean = run_pipeline(tableau, TW1, **kwargs)
        path = tmp_path / "run.ckpt"
        plan = FaultPlan("kill", 10, str(tmp_path / "token"))

        def doomed():
            run_pipeline(
                tableau, FaultyClass(TW1, plan), checkpoint=_manager(path), **kwargs
            )

        process = multiprocessing.get_context("fork").Process(target=doomed)
        process.start()
        process.join(timeout=120)
        assert process.exitcode == -signal.SIGKILL
        assert path.exists()
        resumed = run_pipeline(tableau, TW1, checkpoint=_manager(path), **kwargs)
        assert resumed.frontier == clean.frontier
        assert resumed.stats.resumed_candidates >= 5
        assert resumed.stats.generated == clean.stats.generated

    # The smoke specs the fine-to-coarse walk prunes hardest: a resume
    # must replay the interrupted run's pruning, not only its cursor.
    PRUNED = [
        (CHORDED_7, HTW2, 8),
        (CHORDED_7, HTW2, 15),
        (CHORDED_7, TW2, 8),
        (CHORDED_7, TW2, 15),
        (CHORDED_7, TW2, 30),
    ]

    @pytest.mark.parametrize("query,cls,check", PRUNED)
    def test_resume_replays_the_pruned_walk(self, tmp_path, query, cls, check):
        tableau = query.tableau()
        clean = run_pipeline(tableau, cls, max_extra_atoms=0)
        assert clean.stats.generated < 877  # the walk pruned something
        path = tmp_path / "run.ckpt"
        faulty = FaultyClass(cls, FaultPlan("raise", check, str(tmp_path / "token")))
        with pytest.raises(FaultInjected):
            run_pipeline(tableau, faulty, max_extra_atoms=0, checkpoint=_manager(path))
        assert path.exists()
        resumed = run_pipeline(
            tableau, cls, max_extra_atoms=0, checkpoint=_manager(path)
        )
        assert resumed.stats.resumed_candidates >= 5
        assert resumed.frontier == clean.frontier
        assert resumed.stats.generated == clean.stats.generated

    @pytest.mark.slow
    def test_sigkill_resume_replays_the_pruned_walk(self, tmp_path):
        tableau = CHORDED_7.tableau()
        clean = run_pipeline(tableau, TW2, max_extra_atoms=0)
        path = tmp_path / "run.ckpt"
        plan = FaultPlan("kill", 30, str(tmp_path / "token"))

        def doomed():
            run_pipeline(
                tableau,
                FaultyClass(TW2, plan),
                max_extra_atoms=0,
                checkpoint=_manager(path),
            )

        process = multiprocessing.get_context("fork").Process(target=doomed)
        process.start()
        process.join(timeout=120)
        assert process.exitcode == -signal.SIGKILL
        resumed = run_pipeline(
            tableau, TW2, max_extra_atoms=0, checkpoint=_manager(path)
        )
        assert resumed.frontier == clean.frontier
        assert resumed.stats.generated == clean.stats.generated

    def test_exhausted_budget_leaves_a_resumable_checkpoint(self, tmp_path):
        tableau = LIGHT.tableau()
        clean = run_pipeline(tableau, TW1, max_extra_atoms=0)
        path = tmp_path / "run.ckpt"
        partial = run_pipeline(
            tableau,
            TW1,
            max_extra_atoms=0,
            budget=RunBudget(max_candidates=20),
            checkpoint=_manager(path),
        )
        assert partial.stats.exhausted
        assert path.exists()  # exhausted runs save instead of finalizing
        resumed = run_pipeline(
            tableau, TW1, max_extra_atoms=0, checkpoint=_manager(path)
        )
        assert resumed.frontier == clean.frontier
        assert not path.exists()

    def test_checkpoint_accepts_a_path_string(self, tmp_path):
        path = tmp_path / "run.ckpt"
        result = run_pipeline(
            LIGHT.tableau(), TW1, max_extra_atoms=0, checkpoint=str(path)
        )
        baseline = run_pipeline(LIGHT.tableau(), TW1, max_extra_atoms=0)
        assert result.frontier == baseline.frontier
        assert not path.exists()

    def test_mismatched_run_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        budget = RunBudget(max_candidates=10)
        run_pipeline(
            LIGHT.tableau(),
            TW1,
            max_extra_atoms=0,
            budget=budget,
            checkpoint=_manager(path),
        )
        assert path.exists()
        other = cycle_with_chords(5).tableau()
        with pytest.raises(CheckpointMismatch):
            run_pipeline(other, TW1, max_extra_atoms=0, checkpoint=_manager(path))

    def test_checkpoint_rejects_pooled_runs(self, tmp_path):
        with pytest.raises(ValueError, match="serial"):
            run_pipeline(
                LIGHT.tableau(),
                TW1,
                max_extra_atoms=0,
                workers=2,
                checkpoint=str(tmp_path / "run.ckpt"),
            )

    def test_checkpoint_rejects_extension_streams(self, tmp_path):
        with pytest.raises(ValueError, match="plain quotient stream"):
            run_pipeline(
                cycle_with_chords(4).tableau(),
                HTW2,
                max_extra_atoms=1,
                checkpoint=str(tmp_path / "run.ckpt"),
            )


# --------------------------------------------------------------------------
# CLI satellites
# --------------------------------------------------------------------------


class TestCliRobustness:
    TRIANGLE = "Q() :- E(x, y), E(y, z), E(z, x)"

    def test_exact_limit_default_inherits_config(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["approximate", self.TRIANGLE])
        assert args.exact_limit == DEFAULT_CONFIG.exact_limit

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1024", 1024),
            ("2k", 2 << 10),
            ("512m", 512 << 20),
            ("1.5g", int(1.5 * (1 << 30))),
        ],
    )
    def test_memory_limit_parsing(self, text, expected):
        from repro.cli import _parse_memory_limit

        assert _parse_memory_limit(text) == expected

    @pytest.mark.parametrize("text", ["", "lots", "-5", "0"])
    def test_memory_limit_rejects_garbage(self, text):
        from repro.cli import _parse_memory_limit

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_memory_limit(text)

    def test_json_surfaces_exhaustion_without_stats_flag(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "approximate",
                    self.TRIANGLE,
                    "--cls",
                    "TW1",
                    "--max-candidates",
                    "2",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["exhausted"] is True
        assert "candidate budget" in payload["exhaustion_reason"]
        assert "stats" not in payload  # full counters still need --stats

    def test_human_output_warns_on_exhaustion(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "approximate",
                    self.TRIANGLE,
                    "--cls",
                    "TW1",
                    "--max-candidates",
                    "2",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "budget exhausted" in captured.err
        assert "sound" in captured.err

    def test_unbudgeted_json_has_no_exhaustion_key(self, capsys):
        from repro.cli import main

        assert main(["approximate", self.TRIANGLE, "--cls", "TW1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "exhausted" not in payload
