"""EXP PARALLEL-PIPELINE — staged pipeline vs. the pre-pipeline serial path.

Compares the staged approximation pipeline (:mod:`repro.core.pipeline`)
against a faithful replica of the pre-pipeline serial algorithm (stream all
candidates as tableaux, run every class-membership check, memoized-``hom_le``
frontier) on Corollary 4.3 frontier workloads:

* hypergraph-class (HW/acyclic) frontiers on 9-variable ternary queries —
  the headline: 21147 partitions funneled through hypertree/acyclicity
  checks, where the pipeline's stages pay off individually (lazy
  integer-form candidates that never build a ``Structure`` for rejected
  quotients; membership verdicts memoized per primal graph/hypergraph;
  fixed-per-run dedup and stage ordering; memo-free, move-to-front
  dominance) and the stream shards across a process pool;
* graph-class frontiers (C7/TW1, C7/TW2) as regression rows — these are
  already dominated by the engine's canonical dedup, so the pipeline must
  simply not lose ground.

Three timed configurations per workload: the legacy serial path, the
pipeline with ``workers=1`` (bit-identical results, enforced), and the
pipeline with ``workers=4`` — four stream shards merged in stream order
(also enforced bit-identical).

On single-CPU hosts (``cpu_count`` is recorded in the JSON) the 4-worker
wall-clock gain is algorithmic — memoization and laziness carried by the
pipeline path — while the pool only adds overhead; on multicore hosts the
shards scale the whole loop on top of that.

Writes machine-readable ``BENCH_parallel_pipeline.json`` at the repository
root so the perf trajectory is tracked across PRs.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from repro.core import (
    AC,
    ApproximationConfig,
    GeneralizedHypertreeClass,
    HypertreeClass,
    TreewidthClass,
    run_pipeline,
)
from repro.core.approximation import candidate_tableaux
from repro.cq import parse_query
from repro.homomorphism.engine import HomEngine
import repro.homomorphism.engine as engine_module
from repro.workloads import cycle_with_chords
from paperfmt import table, write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_parallel_pipeline.json"


# --------------------------------------------------------------------------
# Legacy implementation: a faithful replica of the pre-pipeline serial path
# (PR 1 state) — candidate stream materialized as tableaux, every candidate
# class-checked, frontier via the engine's memoized hom_le.  Kept here so
# the benchmark keeps measuring the same baseline as the pipeline evolves.
# --------------------------------------------------------------------------


def legacy_frontier(query, cls, config):
    engine = engine_module.default_engine()
    frontier = []
    for candidate in candidate_tableaux(query, cls, config):
        if any(engine.hom_le(member, candidate) for member in frontier):
            continue
        frontier = [m for m in frontier if not engine.hom_le(candidate, m)]
        frontier.append(candidate)
    return frontier


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

TERNARY_C5_9V = parse_query(
    "Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x7), R(x7,x8,x9), R(x9,x2,x1)"
)
TERNARY_DENSE_9V = parse_query(
    "Q() :- R(x1,x2,x3), R(x2,x3,x4), R(x4,x5,x6), R(x5,x6,x7), "
    "R(x7,x8,x9), R(x8,x9,x1)"
)
TERNARY_C3_6V = parse_query("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)")


def workloads():
    quotients_only = {"max_extra_atoms": 0}
    one_fresh_ext = {"max_extra_atoms": 1, "allow_fresh": False}
    return [
        # (name, query, class, candidate-space kwargs, repeats); the first
        # row is the headline
        (
            "dense(9v,6atoms)/GHW1-acyclic",
            TERNARY_DENSE_9V,
            GeneralizedHypertreeClass(1),
            quotients_only,
            1,
        ),
        (
            "dense(9v,6atoms)/HTW1",
            TERNARY_DENSE_9V,
            HypertreeClass(1),
            quotients_only,
            1,
        ),
        (
            "ternary-C5(9v)/HTW1",
            TERNARY_C5_9V,
            HypertreeClass(1),
            quotients_only,
            1,
        ),
        ("ternary-C3(6v)/AC +ext", TERNARY_C3_6V, AC, one_fresh_ext, 3),
        ("C7/TW1", cycle_with_chords(7), TreewidthClass(1), {}, 3),
        ("C7/TW2", cycle_with_chords(7), TreewidthClass(2), {}, 3),
    ]


def _fresh_engine_run(fn, repeats: int):
    """Median wall time of ``fn`` under a private engine, plus last result."""
    times, result = [], None
    for _ in range(repeats):
        saved = engine_module.DEFAULT_ENGINE
        engine_module.DEFAULT_ENGINE = HomEngine()
        try:
            started = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - started)
        finally:
            engine_module.DEFAULT_ENGINE = saved
    return statistics.median(times), result


def run_workload(name, query, cls, space, repeats):
    config = ApproximationConfig(**space)
    tableau = query.tableau()
    space_kwargs = {
        "max_extra_atoms": config.max_extra_atoms,
        "allow_fresh": config.allow_fresh,
    }

    legacy_s, legacy = _fresh_engine_run(
        lambda: legacy_frontier(query, cls, config), repeats
    )
    serial_s, serial = _fresh_engine_run(
        lambda: run_pipeline(tableau, cls, **space_kwargs), repeats
    )
    pool_s, pooled = _fresh_engine_run(
        lambda: run_pipeline(tableau, cls, workers=4, **space_kwargs), repeats
    )
    assert legacy == serial.frontier, f"{name}: serial pipeline not bit-identical"
    assert legacy == pooled.frontier, f"{name}: pooled pipeline not bit-identical"

    entry = {
        "workload": name,
        "class": cls.name,
        "variables": len(tableau.structure.domain),
        "frontier_size": len(legacy),
        "legacy_s": round(legacy_s, 4),
        "pipeline_serial_s": round(serial_s, 4),
        "pipeline_pool4_s": round(pool_s, 4),
        "speedup_serial": round(legacy_s / serial_s, 2) if serial_s else None,
        "speedup_pool4": round(legacy_s / pool_s, 2) if pool_s else None,
        "stats": {
            key: round(value, 4) if isinstance(value, float) else value
            for key, value in serial.stats.as_dict().items()
        },
    }
    return entry


def run_all() -> dict:
    rows = [run_workload(*spec) for spec in workloads()]
    headline_name = workloads()[0][0]
    headline = next(row for row in rows if row["workload"] == headline_name)
    return {
        "benchmark": "parallel_pipeline",
        "description": (
            "pre-pipeline serial path vs staged pipeline "
            "(lazy integer-form candidates, key-memoized class checks, "
            "stream shards over a process pool)"
        ),
        "cpu_count": os.cpu_count(),
        "workloads": rows,
        "headline": {
            "name": headline["workload"],
            "class": headline["class"],
            "speedup": headline["speedup_pool4"],
            "speedup_serial": headline["speedup_serial"],
            "target_speedup": 2.0,
            "note": (
                "speedup of the 4-worker pipeline over the pre-pipeline "
                "serial path; on 1-CPU hosts the gain is algorithmic "
                "(memoization + laziness), on multicore the stream shards "
                "add on top"
            ),
        },
    }


def emit_json(payload: dict) -> None:
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


HEADERS = ["workload", "class", "legacy", "pipe(1w)", "pipe(4w)", "speedup(4w)", "frontier"]


def _report_rows(payload: dict) -> list[list[object]]:
    rows = []
    for entry in payload["workloads"]:
        rows.append(
            [
                entry["workload"],
                entry["class"],
                f"{entry['legacy_s']:.2f}s",
                f"{entry['pipeline_serial_s']:.2f}s",
                f"{entry['pipeline_pool4_s']:.2f}s",
                f"{entry['speedup_pool4']:.2f}x",
                entry["frontier_size"],
            ]
        )
    return rows


def bench_parallel_pipeline_report(benchmark):
    def report():
        payload = run_all()
        emit_json(payload)
        assert payload["headline"]["speedup"] >= payload["headline"]["target_speedup"], (
            "pipeline with 4 workers must be ≥2x over the serial path on the "
            "hypergraph-class headline frontier"
        )
        return table(HEADERS, _report_rows(payload))

    body = benchmark.pedantic(report, rounds=1, iterations=1)
    write_report(
        "parallel_pipeline",
        "Staged parallel pipeline: serial path vs workers=1 / workers=4",
        body,
    )


if __name__ == "__main__":
    payload = run_all()
    emit_json(payload)
    print(table(HEADERS, _report_rows(payload)))
    headline = payload["headline"]
    print(
        f"\nheadline: {headline['name']} [{headline['class']}] "
        f"{headline['speedup']}x with 4 workers "
        f"(target ≥ {headline['target_speedup']}x, cpu_count={payload['cpu_count']}); "
        f"wrote {JSON_PATH.name}"
    )
