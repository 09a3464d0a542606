"""EXP ROBUSTNESS — cost of the budgeted anytime machinery, and fault
recovery latency.

PR 6 threads a :class:`~repro.runtime.budget.RunBudget` through every
pipeline seam (per-candidate deadline/cap checks, amortized memory
probes) and makes the local process pool fault-tolerant (pool respawn on
worker death, per-shard timeouts).  Robustness must not tax the fault-free
fast path, so this benchmark tracks:

* **Budget overhead** (the headline): the 9-variable member-heavy HTW(2)
  serial frontier with *no* budget vs. with a generous never-tripping
  budget (deadline + memory ceiling + candidate/check caps all armed).
  The gate is the budget's own work, counted exactly by an injected
  ``clock`` and ``rss_probe`` and by wrapped tracked-entry probes: at
  most one clock read per candidate plus :data:`CLOCK_READ_SLACK`, and at
  most ``ceil(candidates / MEMORY_PROBE_INTERVAL) + 1`` RSS reads and
  evaluations of each tracked-entry probe.  So the armed budget costs a
  constant per candidate, whatever the frontier holds; ``cost_bound_pct``
  turns that count into a time bound (calls times the measured cost of
  one ``exceeded()`` call, over the unbudgeted run).  The wall-clock
  ``speedup`` (median, over :data:`REPEATS` interleaved pairs, of
  ``unbudgeted_s / budgeted_s``) is reported, not asserted: single pairs
  of identical work spread 0.70-1.23 on a 2-CPU host.  Results are
  asserted bit-identical and the budgeted runs must not report
  exhaustion.
* **Checkpoint overhead**: the same run snapshotting frontier + cursor
  every 256 candidates (insertion order, the checkpointable regime).
* **Recovery latency**: a two-worker sharded run whose 5th class check
  SIGKILLs its shard worker (the deterministic harness in
  :mod:`repro.testing.faults`) vs. the fault-free sharded run — the
  respawn + shard resubmission cost of one pool death, with the result
  still bit-identical to serial.

Writes machine-readable ``BENCH_robustness.json`` at the repository root
so the perf trajectory is tracked across PRs.  ``--smoke`` runs the same
workloads with the same assertions, one pair per row, and writes nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import tempfile
import time
from pathlib import Path

from repro.core import HypertreeClass, PipelineStats, run_pipeline
from repro.homomorphism.engine import HomEngine
import repro.homomorphism.engine as engine_module
from repro.runtime import CheckpointManager, RunBudget
from repro.runtime.budget import MEMORY_PROBE_INTERVAL, read_rss
from repro.testing import FaultPlan, FaultyClass
from repro.workloads import cycle_with_chords
from paperfmt import table, write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_robustness.json"

HEADLINE_QUERY = cycle_with_chords(9, ((0, 3), (1, 4), (2, 5), (6, 8), (7, 1)))
HEADLINE_CLASS = HypertreeClass(2)
#: Interleaved A/B pairs per row (odd, so the median is one pair's ratio).
REPEATS = 7
#: Clock reads allowed beyond one per candidate: ``run_pipeline``'s
#: ``budget.start()`` reads it once.
CLOCK_READ_SLACK = 2

_GENEROUS = dict(
    deadline=3600.0, memory_limit=1 << 40, max_candidates=10**9, max_checks=10**9
)


def _generous_budget() -> RunBudget:
    """Every dimension armed, none remotely trippable on this workload."""
    return RunBudget(**_GENEROUS)


class _CountingBudget(RunBudget):
    """The generous budget, counting its own clock reads, RSS reads and
    evaluations of each registered tracked-entry probe."""

    def __init__(self) -> None:
        self.clock_reads = 0
        self.rss_reads = 0
        self.entry_probe_calls: list[int] = []
        super().__init__(**_GENEROUS, clock=self._clock_read, rss_probe=self._rss_read)

    def _clock_read(self) -> float:
        self.clock_reads += 1
        return time.monotonic()

    def _rss_read(self) -> int:
        self.rss_reads += 1
        return read_rss()

    def register_probe(self, probe) -> None:
        slot = len(self.entry_probe_calls)
        self.entry_probe_calls.append(0)

        def counted() -> int:
            self.entry_probe_calls[slot] += 1
            return probe()

        super().register_probe(counted)


def _exceeded_call_s(calls: int = 100_000) -> float:
    """Mean seconds of one ``exceeded()`` call of a generous budget with
    two registered probes, its memory probes amortized as in a run."""
    budget = _generous_budget()
    budget.register_probe(lambda: 0)
    budget.register_probe(lambda: 0)
    stats = PipelineStats()
    started = time.perf_counter()
    for _ in range(calls):
        budget.exceeded(stats)
    return (time.perf_counter() - started) / calls


def _fresh_engine(fn, repeats: int):
    """Median wall time of ``fn`` under a private engine, plus last result."""
    times, result = [], None
    for _ in range(repeats):
        saved = engine_module.DEFAULT_ENGINE
        engine_module.DEFAULT_ENGINE = HomEngine()
        gc.collect()
        try:
            started = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - started)
        finally:
            engine_module.DEFAULT_ENGINE = saved
    return statistics.median(times), result


def _paired(fn_a, fn_b, repeats: int):
    """Interleaved A/B timing: (median_a, median_b, ratio, last_a, last_b).

    Alternating the variants inside each repetition cancels the slow
    drift (page cache, allocator growth, noisy neighbors) that makes
    back-to-back blocks on a small shared host disagree by more than the
    effect under measurement.  ``ratio`` is the median over pairs of
    ``time_a / time_b``: each pair shares its spell of host speed, so a
    slow spell moves both sides of one ratio instead of one side of the
    ratio of medians.
    """
    times_a, times_b, result_a, result_b = [], [], None, None
    for pair in range(repeats):
        # Alternate which side runs first, so neither always inherits the
        # other's garbage and warm caches.
        if pair % 2:
            t_b, result_b = _fresh_engine(fn_b, 1)
            t_a, result_a = _fresh_engine(fn_a, 1)
        else:
            t_a, result_a = _fresh_engine(fn_a, 1)
            t_b, result_b = _fresh_engine(fn_b, 1)
        times_a.append(t_a)
        times_b.append(t_b)
    return (
        statistics.median(times_a),
        statistics.median(times_b),
        statistics.median(a / b for a, b in zip(times_a, times_b)),
        result_a,
        result_b,
    )


def _overhead_pct(ratio: float) -> float:
    """Extra time of the B side in percent, from the median pair ratio."""
    return round(100.0 * (1.0 / ratio - 1.0), 1)


def budget_overhead(repeats: int = REPEATS) -> dict:
    tableau = HEADLINE_QUERY.tableau()
    # One untimed warm-up so process-global caches (imports, decomposition
    # scratch) don't bill their cost to whichever variant runs first.
    _fresh_engine(
        lambda: run_pipeline(tableau, HEADLINE_CLASS, max_extra_atoms=0), 1
    )
    plain_s, budgeted_s, ratio, plain, budgeted = _paired(
        lambda: run_pipeline(tableau, HEADLINE_CLASS, max_extra_atoms=0),
        lambda: run_pipeline(
            tableau,
            HEADLINE_CLASS,
            max_extra_atoms=0,
            budget=_generous_budget(),
        ),
        repeats,
    )
    assert budgeted.frontier == plain.frontier, "budgeted run not bit-identical"
    assert not budgeted.stats.exhausted, "generous budget reported exhaustion"
    budget = _CountingBudget()
    _, counted = _fresh_engine(
        lambda: run_pipeline(
            tableau, HEADLINE_CLASS, max_extra_atoms=0, budget=budget
        ),
        1,
    )
    assert counted.frontier == plain.frontier, "budgeted run not bit-identical"
    assert not counted.stats.exhausted, "generous budget reported exhaustion"
    candidates = counted.stats.generated
    probe_bound = math.ceil(candidates / MEMORY_PROBE_INTERVAL) + 1
    assert 1 <= budget.clock_reads <= candidates + CLOCK_READ_SLACK, (
        f"{budget.clock_reads} clock reads for {candidates} candidates"
    )
    assert 1 <= budget.rss_reads <= probe_bound, (
        f"{budget.rss_reads} RSS reads for {candidates} candidates"
    )
    assert budget.entry_probe_calls and all(
        1 <= calls <= probe_bound for calls in budget.entry_probe_calls
    ), f"tracked-entry probes {budget.entry_probe_calls} for {candidates} candidates"
    return {
        "workload": "C9+5ch/HTW2 budget overhead",
        "class": HEADLINE_CLASS.name,
        "candidates": plain.stats.generated,
        "frontier_size": len(plain.frontier),
        "clock_reads": budget.clock_reads,
        "rss_reads": budget.rss_reads,
        "entry_probe_calls": budget.entry_probe_calls,
        "probe_bound": probe_bound,
        "cost_bound_pct": round(100.0 * candidates * _exceeded_call_s() / plain_s, 2),
        "plain_s": round(plain_s, 4),
        "budgeted_s": round(budgeted_s, 4),
        "speedup": round(ratio, 3),
        "overhead_pct": _overhead_pct(ratio),
    }


def checkpoint_overhead(repeats: int = REPEATS) -> dict:
    # Checkpointing changes neither the generation regime nor the stream,
    # so the delta between the two sides is the snapshot cost alone.
    tableau = HEADLINE_QUERY.tableau()

    def checkpointed():
        with tempfile.TemporaryDirectory() as tmp:
            return run_pipeline(
                tableau,
                HEADLINE_CLASS,
                max_extra_atoms=0,
                checkpoint=CheckpointManager(
                    os.path.join(tmp, "run.ckpt"),
                    every_candidates=256,
                    every_seconds=1e9,
                ),
            )

    plain_s, ckpt_s, ratio, plain, ckpt = _paired(
        lambda: run_pipeline(tableau, HEADLINE_CLASS, max_extra_atoms=0),
        checkpointed,
        repeats,
    )
    assert ckpt.frontier == plain.frontier, "checkpointed run not bit-identical"
    return {
        "workload": "C9+5ch/HTW2 checkpoint overhead",
        "class": HEADLINE_CLASS.name,
        "candidates": plain.stats.generated,
        "checkpoints_written": ckpt.stats.checkpoints_written,
        "plain_s": round(plain_s, 4),
        "budgeted_s": round(ckpt_s, 4),
        "speedup": round(ratio, 3),
        "overhead_pct": _overhead_pct(ratio),
    }


def recovery_latency(repeats: int = REPEATS) -> dict:
    query = cycle_with_chords(8, ((0, 3), (1, 4), (2, 6)))
    tableau = query.tableau()
    serial = run_pipeline(tableau, HEADLINE_CLASS, max_extra_atoms=0)

    def faulted():
        with tempfile.TemporaryDirectory() as tmp:
            faulty = FaultyClass(
                HEADLINE_CLASS,
                FaultPlan("kill", 5, os.path.join(tmp, "token")),
            )
            return run_pipeline(tableau, faulty, max_extra_atoms=0, workers=2)

    clean_s, faulted_s, ratio, clean, recovered = _paired(
        lambda: run_pipeline(
            tableau, HEADLINE_CLASS, max_extra_atoms=0, workers=2
        ),
        faulted,
        repeats,
    )
    assert clean.frontier == serial.frontier
    assert recovered.frontier == serial.frontier, "recovery not bit-identical"
    assert recovered.stats.pool_respawns >= 1, "kill fault did not break the pool"
    return {
        "workload": "C8+3ch/HTW2 shard worker-kill recovery",
        "class": HEADLINE_CLASS.name,
        "candidates": serial.stats.generated,
        "pool_respawns": recovered.stats.pool_respawns,
        "plain_s": round(clean_s, 4),
        "budgeted_s": round(faulted_s, 4),
        "speedup": round(ratio, 3),
        "recovery_cost_s": round(faulted_s - clean_s, 4),
    }


def run_all(repeats: int = REPEATS) -> dict:
    rows = [
        budget_overhead(repeats),
        checkpoint_overhead(repeats),
        recovery_latency(repeats),
    ]
    headline = rows[0]
    return {
        "benchmark": "robustness",
        "description": (
            "cost of the budgeted anytime machinery (armed never-tripping "
            "RunBudget, periodic checkpointing) on the fault-free fast "
            "path, plus shard worker-kill recovery latency; all runs "
            "asserted bit-identical to their unbudgeted/fault-free "
            "counterparts"
        ),
        "cpu_count": os.cpu_count(),
        "workloads": rows,
        "headline": {
            "name": headline["workload"],
            "class": headline["class"],
            "candidates": headline["candidates"],
            "clock_reads": headline["clock_reads"],
            "rss_reads": headline["rss_reads"],
            "probe_bound": headline["probe_bound"],
            "cost_bound_pct": headline["cost_bound_pct"],
            "note": (
                "serial 9-variable member-heavy HTW(2) frontier under a "
                "generous fully-armed RunBudget (deadline + memory ceiling "
                "+ candidate/check caps); asserted: at most one clock read "
                "per candidate plus a constant, and at most "
                "ceil(candidates / MEMORY_PROBE_INTERVAL) + 1 RSS and "
                "tracked-entry probes; cost_bound_pct is that work timed "
                "per exceeded() call, over the unbudgeted run"
            ),
        },
    }


def smoke() -> None:
    """Every row's assertions, one pair each, for scripts/verify.sh — no
    JSON or report rewrite."""
    budget, checkpoint, recovery = run_all(repeats=1)["workloads"]
    print(
        f"smoke ok: {budget['clock_reads']} clock reads and "
        f"{budget['rss_reads']} RSS reads for {budget['candidates']} "
        f"candidates (probe bound {budget['probe_bound']}); "
        f"{checkpoint['checkpoints_written']} checkpoints and "
        f"{recovery['pool_respawns']} pool respawn(s), bit-identical"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one pair per row, assertions only (no BENCH_robustness.json write)",
    )
    if parser.parse_args().smoke:
        smoke()
        return
    payload = run_all()
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    body = table(
        ["workload", "plain(s)", "with machinery(s)", "speedup", "extra"],
        [
            [
                row["workload"],
                row["plain_s"],
                row["budgeted_s"],
                f"{row['speedup']}x",
                (
                    f"overhead {row['overhead_pct']}%"
                    if "overhead_pct" in row
                    else f"recovery {row['recovery_cost_s']}s, "
                    f"{row['pool_respawns']} respawn(s)"
                ),
            ]
            for row in payload["workloads"]
        ],
    )
    write_report(
        "bench_robustness",
        "Budgeted anytime machinery: overhead and recovery latency",
        body,
    )
    print(f"wrote {JSON_PATH}")


if __name__ == "__main__":
    main()
