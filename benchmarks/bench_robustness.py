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
  ``headline.speedup`` is the median, over :data:`REPEATS` interleaved
  pairs, of ``unbudgeted_s / budgeted_s``; the target 0.95 means
  the armed budget may cost at most ~5%.  Results are asserted
  bit-identical and the budgeted run must not report exhaustion.
* **Checkpoint overhead**: the same run snapshotting frontier + cursor
  every 256 candidates (insertion order, the checkpointable regime).
* **Recovery latency**: a two-worker sharded run whose 5th class check
  SIGKILLs its shard worker (the deterministic harness in
  :mod:`repro.testing.faults`) vs. the fault-free sharded run — the
  respawn + shard resubmission cost of one pool death, with the result
  still bit-identical to serial.

Writes machine-readable ``BENCH_robustness.json`` at the repository root
so the perf trajectory is tracked across PRs.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import tempfile
import time
from pathlib import Path

from repro.core import HypertreeClass, run_pipeline
from repro.homomorphism.engine import HomEngine
import repro.homomorphism.engine as engine_module
from repro.runtime import CheckpointManager, RunBudget
from repro.testing import FaultPlan, FaultyClass
from repro.workloads import cycle_with_chords
from paperfmt import table, write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_robustness.json"

HEADLINE_QUERY = cycle_with_chords(9, ((0, 3), (1, 4), (2, 5), (6, 8), (7, 1)))
HEADLINE_CLASS = HypertreeClass(2)
#: Interleaved A/B pairs per row (odd, so the median is one pair's ratio).
REPEATS = 7


def _generous_budget() -> RunBudget:
    """Every dimension armed, none remotely trippable on this workload."""
    return RunBudget(
        deadline=3600.0,
        memory_limit=1 << 40,
        max_candidates=10**9,
        max_checks=10**9,
    )


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


def budget_overhead() -> dict:
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
        REPEATS,
    )
    assert budgeted.frontier == plain.frontier, "budgeted run not bit-identical"
    assert not budgeted.stats.exhausted, "generous budget reported exhaustion"
    return {
        "workload": "C9+5ch/HTW2 budget overhead",
        "class": HEADLINE_CLASS.name,
        "candidates": plain.stats.generated,
        "frontier_size": len(plain.frontier),
        "plain_s": round(plain_s, 4),
        "budgeted_s": round(budgeted_s, 4),
        "speedup": round(ratio, 3),
        "overhead_pct": _overhead_pct(ratio),
    }


def checkpoint_overhead() -> dict:
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
        REPEATS,
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


def recovery_latency() -> dict:
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
        REPEATS,
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


def run_all() -> dict:
    rows = [budget_overhead(), checkpoint_overhead(), recovery_latency()]
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
            "speedup": headline["speedup"],
            "target_speedup": 0.95,
            "overhead_pct": headline["overhead_pct"],
            "note": (
                "serial 9-variable member-heavy HTW(2) frontier, no budget "
                "vs a generous fully-armed RunBudget (deadline + memory "
                "ceiling + candidate/check caps); >= 0.95 keeps the "
                "budget tax under ~5%"
            ),
        },
    }


def main() -> None:
    payload = run_all()
    assert (
        payload["headline"]["speedup"] >= payload["headline"]["target_speedup"]
    ), (
        f"budget overhead regressed: speedup {payload['headline']['speedup']}"
        f" < target {payload['headline']['target_speedup']}"
    )
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
