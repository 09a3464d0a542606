"""Pieces shared by the workloads: inputs from a seed, fresh engines,
pipeline counters, and what a measurement hands back to ``run.py``."""

from __future__ import annotations

import os
import random
import statistics
import string
from dataclasses import dataclass, field

from repro.cq import ConjunctiveQuery
from repro.cq.query import Atom
import repro.homomorphism.engine as engine_module

from harness import Pass


def fresh_engine() -> None:
    """Give the next operation an empty engine, as a one-shot user has.

    Every approximation call otherwise inherits the ``hom_le`` and
    canonical-key memos the previous one filled.
    """
    engine_module.DEFAULT_ENGINE = engine_module.HomEngine()


def rename_preserving_order(
    query: ConjunctiveQuery, rng: random.Random
) -> ConjunctiveQuery:
    """The same query under fresh variable names and a shuffled body.

    The new names sort like the old ones.  The pipeline enumerates
    quotients in the sorted order of the variables, and that order changes
    its work (by 2.5x on dense(8v)/GHTW1), so a seed that permuted the
    order would change what is measured, not just the spelling.
    """
    prefix = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
    variables = sorted(set(query.variables), key=repr)
    names = {v: f"{prefix}{i:02d}" for i, v in enumerate(variables)}
    atoms = [
        Atom(atom.relation, tuple(names[v] for v in atom.args))
        for atom in query.atoms
    ]
    rng.shuffle(atoms)
    return ConjunctiveQuery(tuple(names[v] for v in query.head), atoms)


#: ``PipelineStats`` counters reported per layer, summed over a pass.
PIPELINE_COUNTERS = (
    "generated",
    "checks_run",
    "check_memo_hits",
    "hom_le_calls",
    "dominance_tests",
    "late_canonizations",
    "admissions_resolved_by_order",
    "admitted",
    "dominated",
    "dominated_without_search",
    "order_switches",
    "generation_switches",
    "pool_respawns",
)


def pipeline_layer_metrics(totals: dict) -> dict:
    """Per-layer count metrics from summed ``PipelineStats`` counters."""
    checked = totals["checks_run"] + totals["check_memo_hits"]
    resolved = (
        totals["admitted"] + totals["dominated"] + totals["dominated_without_search"]
    )
    return {
        "quotients.candidates": totals["generated"],
        "classes.checks_run": totals["checks_run"],
        "classes.check_memo_hit_ratio": (
            totals["check_memo_hits"] / checked if checked else 0.0
        ),
        "homomorphism.hom_le_calls": totals["hom_le_calls"],
        "frontier.dominance_tests": totals["dominance_tests"],
        "frontier.late_canonizations": totals["late_canonizations"],
        "frontier.search_free_ratio": (
            totals["admissions_resolved_by_order"] / resolved if resolved else 0.0
        ),
        "frontier.controller_switches": (
            totals["order_switches"] + totals["generation_switches"]
        ),
        "parallel.pool_respawns": totals["pool_respawns"],
    }


#: Span names of the traced pass -> the per-layer time metric they feed.
SPAN_METRICS = {
    "homomorphism.hom_le": "homomorphism.hom_le_s",
    "homomorphism.canonical_key": "homomorphism.canonical_key_s",
    "homomorphism.core": "homomorphism.core_s",
    "core.quotients": "quotients.generate_s",
    "core.classes": "classes.check_s",
    "core.pipeline.frontier": "frontier.reduce_s",
    "core.pipeline.merge": "frontier.merge_s",
    "core.pipeline.driver": "pipeline.driver_s",
    "core.approximation": "approximation.self_s",
    "parallel": "parallel.wait_s",
    "evaluation.plan": "evaluation.plan_s",
    "evaluation.scan": "evaluation.scan_s",
    "evaluation.join": "evaluation.join_s",
    "evaluation.semijoin": "evaluation.semijoin_s",
    "evaluation.project": "evaluation.project_s",
    "evaluation.extend": "evaluation.extend_s",
}


def span_metrics(tracer, passes: int) -> dict:
    """Self seconds per traced pass for every mapped span name."""
    return {
        metric: tracer.exclusive.get(span, 0.0) / passes
        for span, metric in SPAN_METRICS.items()
    }


#: Untraced passes, then traced passes, of a traced run: the untraced ones
#: are the base of ``trace.overhead_frac``, and the solve workloads'
#: determinism report compares each query's counters across all four.
BASELINE_PASSES = 2
TRACED_PASSES = 2


def traced_passes(run_pass, check, untraced: list[Pass], targets, host):
    """:data:`TRACED_PASSES` traced passes, after the run's ``untraced`` ones.

    ``run_pass(index, tracer)`` runs one pass and returns ``(ops,
    outputs)``; ``check(outputs)`` verifies it.  Returns the tracer, the
    per-layer time and diagnostic metrics, and the printed layer table.
    """
    from trace import Tracer, format_layer_table

    traced_walls = []
    with Tracer() as tracer:
        tracer.patch_all(targets)
        for index in range(TRACED_PASSES):
            ops, outputs = run_pass(index, tracer)
            traced_walls.append(Pass(ops).wall)
            tracer.op = None
            check(outputs)
    wall = sum(traced_walls)
    rows = tracer.layer_rows(wall)
    walls = [p.wall for p in untraced]
    metrics = span_metrics(tracer, TRACED_PASSES)
    metrics.update(
        {
            "trace.overhead_frac": (
                statistics.mean(traced_walls) / statistics.median(walls) - 1
            ),
            "trace.unaccounted_frac": rows[-1][1] / wall,
            "parallel.cpu_util": (
                sum(p.cpu for p in untraced) / (sum(walls) * (os.cpu_count() or 1))
            ),
            "host.calib_s": host.median,
        }
    )
    table = f"layer table ({TRACED_PASSES} traced passes)\n" + format_layer_table(
        rows, wall
    )
    return tracer, metrics, table


@dataclass
class Measurement:
    """What an untraced run hands back to ``run.py``."""

    #: End-to-end metric values as measured on this host, except
    #: ``setup_s`` and ``peak_rss_mb``, which ``run.py`` measures itself.
    values: dict[str, float]
    attempted: int
    failed: int
    #: Raw samples by name (printed as quartiles and kept in the record).
    samples: dict[str, list[float]]
    notes: list[str] = field(default_factory=list)


def pass_measurement(
    passes: list[Pass], attempted: int, failures: list[str]
) -> Measurement:
    """The measurement of passes that each run the same operations once.

    ``max_qps`` is the operations of one pass over the median pass wall
    time, ``cpu_ms`` the median pass CPU time per operation.
    ``op_tail_ms`` is the median latency of the slowest operation: a run
    holds 25-55 samples of five different operations, and the highest
    percentile with ten samples beyond it (p60-p80) would mix operations
    rather than show a tail.
    """
    walls: dict[str, list[float]] = {}
    for p in passes:
        for name, wall, _ in p.ops:
            walls.setdefault(name, []).append(wall)
    per_pass = len(passes[0].ops)
    values = {
        "max_qps": per_pass / statistics.median(p.wall for p in passes),
        "cpu_ms": statistics.median(p.cpu for p in passes) / per_pass * 1000,
        "op_tail_ms": max(statistics.median(ws) for ws in walls.values()) * 1000,
    }
    samples = {
        "pass wall s": [p.wall for p in passes],
        "pass cpu s": [p.cpu for p in passes],
    }
    notes = [
        f"{name}: median {statistics.median(ws) * 1000:.1f} ms "
        f"[{min(ws) * 1000:.1f}, {max(ws) * 1000:.1f}] over {len(ws)} passes"
        for name, ws in walls.items()
    ]
    return Measurement(values, attempted, len(failures), samples, notes + failures)


@dataclass
class TraceReport:
    """What a traced run hands back: per-layer metrics and its tables."""

    metrics: dict
    attempted: int
    failed: int
    tables: list[str] = field(default_factory=list)
    #: The traced pass's :class:`trace.Tracer` (its spans go to trace.jsonl).
    tracer: object = None
