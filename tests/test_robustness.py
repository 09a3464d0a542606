"""Tests for the budgeted anytime pipeline and its fault tolerance.

Covers the :mod:`repro.runtime` budget/checkpoint primitives, the
fault-tolerant executors in :mod:`repro.parallel`, the deterministic
fault-injection harness (:mod:`repro.testing.faults`), the pipeline-level
anytime semantics (partial frontiers are *sound*: every member passed its
class check and receives a homomorphism from the base), checkpoint/resume
bit-identity across crashes — including a real ``SIGKILL`` of the driver
process — and the CLI/regression-gate satellites.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import (
    DEFAULT_CONFIG,
    TW1,
    ApproximationConfig,
    HypertreeClass,
    run_pipeline,
)
from repro.core.pipeline import PipelineStats
from repro.homomorphism.engine import default_engine
from repro.parallel import BatchFault, SerialExecutor, make_executor
from repro.runtime import CheckpointManager, CheckpointMismatch, RunBudget
from repro.runtime.budget import MEMORY_PROBE_INTERVAL
from repro.testing import FaultInjected, FaultPlan, FaultyClass
from repro.workloads import cycle_with_chords

HTW2 = HypertreeClass(2)
LIGHT = cycle_with_chords(6)
MEMBER_HEAVY = cycle_with_chords(8, ((0, 3), (1, 4), (2, 6)))


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
# Executor-level fault tolerance
# --------------------------------------------------------------------------


def _claim_token(token_path: str) -> bool:
    try:
        fd = os.open(token_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _executor_task(payload):
    """Module-level pool task (picklable): scripted kill/sleep/raise."""
    action, value, token_path = payload
    if action == "kill" and _claim_token(token_path):
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "sleep" and _claim_token(token_path):
        time.sleep(value)
    elif action == "boom":
        raise ValueError(f"boom {value}")
    return value * 2


class TestSerialExecutor:
    def test_yield_mode_quarantines_raising_tasks(self):
        executor = SerialExecutor()
        results = list(
            executor.imap(
                _executor_task,
                [("ok", 1, ""), ("boom", 2, ""), ("ok", 3, "")],
                failures="yield",
            )
        )
        assert results[0] == 2 and results[2] == 6
        assert isinstance(results[1], BatchFault)
        assert results[1].kind == "error" and "boom 2" in results[1].error
        assert executor.faults == [results[1]]

    def test_raise_mode_propagates(self):
        with pytest.raises(ValueError):
            list(SerialExecutor().imap(_executor_task, [("boom", 1, "")]))


@pytest.mark.slow
class TestProcessExecutorFaults:
    def test_worker_kill_recovers_with_identical_results(self, tmp_path):
        token = str(tmp_path / "token")
        tasks = [("ok", i, "") for i in range(20)]
        tasks[7] = ("kill", 7, token)
        with make_executor(2) as executor:
            results = list(executor.imap(_executor_task, iter(tasks)))
        # The broken pool was respawned and every in-flight task was
        # resubmitted in order: the result stream is exactly the serial one
        # (the claimed token keeps the retried task from re-firing).
        assert results == [i * 2 for i in range(20)]
        assert executor.respawns >= 1
        assert executor.faults == []

    def test_serial_fallback_after_respawn_budget(self, tmp_path):
        token = str(tmp_path / "token")
        tasks = [("ok", i, "") for i in range(10)]
        tasks[3] = ("kill", 3, token)
        with make_executor(2, max_respawns=0) as executor:
            results = list(executor.imap(_executor_task, iter(tasks)))
        assert results == [i * 2 for i in range(10)]
        assert executor._serial_fallback

    def test_timeout_quarantines_the_hung_head(self, tmp_path):
        token = str(tmp_path / "token")
        tasks = [("ok", i, "") for i in range(12)]
        tasks[4] = ("sleep", 60.0, token)
        started = time.monotonic()
        with make_executor(2, batch_timeout=0.5) as executor:
            results = list(
                executor.imap(_executor_task, iter(tasks), failures="yield")
            )
        elapsed = time.monotonic() - started
        faults = [r for r in results if isinstance(r, BatchFault)]
        assert [f.kind for f in faults] == ["timeout"]
        assert "0.5" in faults[0].error
        assert [r for r in results if not isinstance(r, BatchFault)] == [
            i * 2 for i in range(12) if i != 4
        ]
        assert executor.timeouts == 1
        # The hung worker was killed, not waited out.
        assert elapsed < 30.0

    def test_poisoned_task_quarantined_without_respawn(self):
        tasks = [("ok", 1, ""), ("boom", 2, ""), ("ok", 3, "")]
        with make_executor(2) as executor:
            results = list(
                executor.imap(_executor_task, iter(tasks), failures="yield")
            )
        assert results[0] == 2 and results[2] == 6
        assert isinstance(results[1], BatchFault) and results[1].kind == "error"
        assert executor.respawns == 0

    def test_context_manager_tears_down_on_exception(self):
        with pytest.raises(RuntimeError):
            with make_executor(2) as executor:
                raise RuntimeError("interrupted")
        assert executor._pool is None


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
        # The broken pool respawned and the lost shards were resubmitted;
        # the claimed token keeps the retry from re-firing, so every shard
        # completes and the frontier is exactly the serial one.
        assert pooled.frontier == serial.frontier
        assert pooled.stats.pool_respawns >= 1
        assert pooled.stats.quarantined == 0

    def test_hung_batch_quarantined_by_timeout(self, tmp_path):
        tableau = MEMBER_HEAVY.tableau()
        faulty = FaultyClass(
            HTW2, FaultPlan("delay", 5, str(tmp_path / "token"), delay=60.0)
        )
        started = time.monotonic()
        result = run_pipeline(
            tableau, faulty, max_extra_atoms=0, workers=2, shard_timeout=5.0
        )
        elapsed = time.monotonic() - started
        assert result.stats.batch_timeouts == 1
        assert result.stats.quarantined >= 1
        assert [fault.kind for fault in result.faults] == ["timeout"]
        assert _sound(tableau, HTW2, result.frontier)
        # The sleeping worker was killed with the pool, not waited out.
        assert elapsed < 30.0

    def test_poisoned_candidate_quarantined(self, tmp_path):
        tableau = MEMBER_HEAVY.tableau()
        faulty = FaultyClass(HTW2, FaultPlan("raise", 5, str(tmp_path / "token")))
        result = run_pipeline(tableau, faulty, max_extra_atoms=0, workers=2)
        assert result.stats.quarantined >= 1
        assert [fault.kind for fault in result.faults] == ["error"]
        assert "FaultInjected" in result.faults[0].error
        assert _sound(tableau, HTW2, result.frontier)
        # A raising task does not break the pool: no respawn needed.
        assert result.stats.pool_respawns == 0


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


# --------------------------------------------------------------------------
# Regression-gate hardening (benchmarks/check_regressions.py)
# --------------------------------------------------------------------------


def _load_gate():
    benchmarks = Path(__file__).resolve().parent.parent / "benchmarks"
    sys.path.insert(0, str(benchmarks))
    try:
        import check_regressions

        return check_regressions
    finally:
        sys.path.pop(0)


def _git_repo_with_committed(tmp_path, filename, content: str) -> Path:
    subprocess.run(
        ["git", "init", "-q"], cwd=tmp_path, check=True, capture_output=True
    )
    (tmp_path / filename).write_text(content)
    env = dict(
        os.environ,
        GIT_AUTHOR_NAME="t",
        GIT_AUTHOR_EMAIL="t@t",
        GIT_COMMITTER_NAME="t",
        GIT_COMMITTER_EMAIL="t@t",
    )
    subprocess.run(
        ["git", "add", filename], cwd=tmp_path, check=True, capture_output=True
    )
    subprocess.run(
        ["git", "commit", "-q", "-m", "baseline"],
        cwd=tmp_path,
        check=True,
        capture_output=True,
        env=env,
    )
    return tmp_path


GOOD_TRACKER = json.dumps({"headline": {"name": "w", "speedup": 2.0}})


class TestRegressionGateHardening:
    def test_malformed_committed_baseline_is_a_distinct_failure(
        self, tmp_path, capsys
    ):
        gate = _load_gate()
        repo = _git_repo_with_committed(tmp_path, "BENCH_x.json", "{not json")
        (repo / "BENCH_x.json").write_text(GOOD_TRACKER)
        code = gate.check_regressions(("BENCH_x.json",), repo)
        captured = capsys.readouterr()
        assert code == gate.EXIT_BASELINE_ERROR == 2
        assert "not valid JSON" in captured.err
        assert "BENCH_x.json" in captured.err

    def test_committed_baseline_without_headline_is_a_distinct_failure(
        self, tmp_path, capsys
    ):
        gate = _load_gate()
        repo = _git_repo_with_committed(
            tmp_path, "BENCH_x.json", json.dumps({"workloads": []})
        )
        (repo / "BENCH_x.json").write_text(GOOD_TRACKER)
        code = gate.check_regressions(("BENCH_x.json",), repo)
        assert code == 2
        assert "headline.speedup" in capsys.readouterr().err

    def test_missing_predecessor_still_passes_as_new(self, tmp_path, capsys):
        gate = _load_gate()
        repo = _git_repo_with_committed(tmp_path, "OTHER.json", "{}")
        (repo / "BENCH_x.json").write_text(GOOD_TRACKER)
        assert gate.check_regressions(("BENCH_x.json",), repo) == 0
        assert "new" in capsys.readouterr().out

    def test_regression_keeps_exit_code_one(self, tmp_path, capsys):
        gate = _load_gate()
        repo = _git_repo_with_committed(tmp_path, "BENCH_x.json", GOOD_TRACKER)
        (repo / "BENCH_x.json").write_text(
            json.dumps({"headline": {"name": "w", "speedup": 1.0}})
        )
        code = gate.check_regressions(("BENCH_x.json",), repo)
        capsys.readouterr()
        assert code == 1

    def test_missing_working_tracker_keeps_exit_code_one(self, tmp_path, capsys):
        gate = _load_gate()
        _git_repo_with_committed(tmp_path, "OTHER.json", "{}")
        code = gate.check_regressions(("BENCH_x.json",), tmp_path)
        capsys.readouterr()
        assert code == 1
