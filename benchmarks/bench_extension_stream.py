"""EXP EXTENSION-STREAM — lazy integer-form extension stream vs. the
materialized tableau path.

The hypergraph-class candidate space (Theorem 6.1 / Claim 6.2) pairs every
quotient with bounded sets of extension atoms.  Before the integer-form
extension stream, the pipeline fell back to materialized ``Tableau`` objects
for these runs: every extended candidate paid ``Structure`` construction and
a tableau-level canonization before the class check could reject it.  The
stream now enumerates extension atoms straight over the quotient's integer
form (block ids plus a fresh-id namespace), prunes extension sets that are
equivalent modulo the quotient's automorphism orbits before any key or
structure exists, and keys the survivors with the fact-level canonical form
shared with the plain quotient stream.

This benchmark times HW(k) extension-space frontiers at 7–8 variables:

* the **legacy path** — a faithful replica of the pre-stream pipeline
  (materialized quotients, tableau-level extension enumeration and
  canonical dedup, candidates without integer form) driven through the same
  stage-2/3 reduction, so the comparison isolates the candidate stream;
* the **integer-form stream** — ``run_pipeline`` serial, whose frontier
  must be **bit-identical** to the legacy result (enforced per workload).

Writes machine-readable ``BENCH_extension_stream.json`` at the repository
root so the perf trajectory is tracked across PRs.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time
from pathlib import Path

from repro.core import HypertreeClass, run_pipeline
from repro.core.pipeline import PipelineStats, _reduce_inline
from repro.core.quotients import (
    _with_extensions,
    iter_extension_atoms,
    iter_quotient_tableaux,
)
from repro.cq import parse_query
from repro.homomorphism.engine import HomEngine
import repro.homomorphism.engine as engine_module
from repro.workloads import cycle_with_chords
from paperfmt import table, write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_extension_stream.json"


# --------------------------------------------------------------------------
# Legacy implementation: a faithful replica of the pre-stream extension path
# (PR 2 state) — quotients materialized, extension atoms enumerated over the
# quotient's structure, extended candidates deduplicated at the tableau
# level (no cross-check against plain quotients), candidates fed to the
# pipeline reduction without an integer form.  Kept here so the benchmark
# keeps measuring the same baseline as the stream evolves; benchmarks are
# standalone scripts, so this replica is a verbatim copy of the one in
# tests/test_pipeline.py (which the differential suite and perf smoke use)
# and the two must stay in sync.
# --------------------------------------------------------------------------


class _LegacyTableauCandidate:
    """The pre-stream stage-1 adapter (the removed ``_TableauCandidate``)."""

    block_count = None
    codes = None

    def __init__(self, tableau):
        self._tableau = tableau

    def facts(self):
        return None

    def materialize(self):
        return self._tableau


def legacy_extended_stream(tableau, max_extra_atoms, allow_fresh):
    engine = engine_module.default_engine()
    seen = set()
    for quotient in iter_quotient_tableaux(tableau, dedup=True):
        yield quotient
        pool = list(
            iter_extension_atoms(quotient.structure, allow_fresh=allow_fresh)
        )
        for count in range(1, max_extra_atoms + 1):
            for extras in itertools.combinations(pool, count):
                extended = _with_extensions(quotient, extras)
                key = engine.canonical_key(extended)
                if key is not None:
                    if key in seen:
                        continue
                    seen.add(key)
                yield extended


def legacy_frontier(tableau, cls, max_extra_atoms, allow_fresh):
    stats = PipelineStats()
    candidates = (
        _LegacyTableauCandidate(t)
        for t in legacy_extended_stream(tableau, max_extra_atoms, allow_fresh)
    )
    frontier = _reduce_inline(candidates, cls, stats)
    return frontier.members, stats


# --------------------------------------------------------------------------
# Workloads: HW(k) extension-space frontiers at 7–8 variables.
# --------------------------------------------------------------------------

TERNARY_C4_7V = parse_query(
    "Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x7), R(x7,x1,x2)"
)


def workloads():
    # (name, tableau, class, max_extra_atoms, allow_fresh, repeats, headline?)
    return [
        # The headline: a 7-variable ternary cycle whose HW(2) extension
        # space is dominated by member quotients, so the family-dominance
        # shortcut and the integer-form keys carry almost the whole stream.
        ("ternary-C4(7v)/HW2 +ext", TERNARY_C4_7V.tableau(), HypertreeClass(2), 1, False, 1, True),
        # The same frontier against HW(1): fewer member quotients, so a
        # larger share of the extension space must be keyed and checked.
        ("ternary-C4(7v)/HW1 +ext", TERNARY_C4_7V.tableau(), HypertreeClass(1), 1, False, 1, False),
        # Binary-relation rows: small extension families (the shared
        # quotient stream bounds them), kept as regression rows.
        ("C7/HW1 +fresh-ext", cycle_with_chords(7).tableau(), HypertreeClass(1), 1, True, 3, False),
        ("C7/HW2 +fresh-ext", cycle_with_chords(7).tableau(), HypertreeClass(2), 1, True, 3, False),
        ("C8/HW1 +ext", cycle_with_chords(8).tableau(), HypertreeClass(1), 1, False, 1, False),
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


def run_workload(name, tableau, cls, max_extra_atoms, allow_fresh, repeats, headline):
    legacy_s, (legacy_members, legacy_stats) = _fresh_engine_run(
        lambda: legacy_frontier(tableau, cls, max_extra_atoms, allow_fresh),
        repeats,
    )
    stream_s, result = _fresh_engine_run(
        lambda: run_pipeline(
            tableau,
            cls,
            max_extra_atoms=max_extra_atoms,
            allow_fresh=allow_fresh,
        ),
        repeats,
    )
    assert result.frontier == legacy_members, f"{name}: stream not bit-identical"
    return {
        "workload": name,
        "class": cls.name,
        "variables": len(tableau.structure.domain),
        "allow_fresh": allow_fresh,
        "frontier_size": len(legacy_members),
        "legacy_candidates": legacy_stats.generated,
        "stream_candidates": result.stats.generated,
        "legacy_s": round(legacy_s, 4),
        "stream_s": round(stream_s, 4),
        "speedup": round(legacy_s / stream_s, 2) if stream_s else None,
        "stats": {
            key: round(value, 4) if isinstance(value, float) else value
            for key, value in result.stats.as_dict().items()
        },
    }


def run_all() -> dict:
    specs = workloads()
    rows = [run_workload(*spec) for spec in specs]
    headline_name = next(spec[0] for spec in specs if spec[6])
    headline = next(row for row in rows if row["workload"] == headline_name)
    return {
        "benchmark": "extension_stream",
        "description": (
            "materialized tableau extension path vs lazy integer-form "
            "extension stream (extension atoms over block + fresh ids, "
            "automorphism-orbit pruning per quotient family, shared "
            "fact-level keyspace)"
        ),
        "cpu_count": os.cpu_count(),
        "workloads": rows,
        "headline": {
            "name": headline["workload"],
            "class": headline["class"],
            "speedup": headline["speedup"],
            "target_speedup": 2.0,
            "note": (
                "serial wall-time of the integer-form extension stream over "
                "the pre-stream materialized path on an HW(k) "
                "extension-space frontier; results are bit-identical"
            ),
        },
    }


def emit_json(payload: dict) -> None:
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


HEADERS = ["workload", "class", "legacy", "stream", "speedup", "candidates", "frontier"]


def _report_rows(payload: dict) -> list[list[object]]:
    return [
        [
            entry["workload"],
            entry["class"],
            f"{entry['legacy_s']:.2f}s",
            f"{entry['stream_s']:.2f}s",
            f"{entry['speedup']:.2f}x",
            f"{entry['legacy_candidates']}→{entry['stream_candidates']}",
            entry["frontier_size"],
        ]
        for entry in payload["workloads"]
    ]


def bench_extension_stream_report(benchmark):
    def report():
        payload = run_all()
        emit_json(payload)
        assert payload["headline"]["speedup"] >= payload["headline"]["target_speedup"], (
            "integer-form extension stream must be ≥2x over the "
            "materialized path on the HW(k) headline frontier"
        )
        return table(HEADERS, _report_rows(payload))

    body = benchmark.pedantic(report, rounds=1, iterations=1)
    write_report(
        "extension_stream",
        "Integer-form extension stream vs materialized tableau path",
        body,
    )


if __name__ == "__main__":
    payload = run_all()
    emit_json(payload)
    print(table(HEADERS, _report_rows(payload)))
    headline = payload["headline"]
    print(
        f"\nheadline: {headline['name']} [{headline['class']}] "
        f"{headline['speedup']}x serial "
        f"(target ≥ {headline['target_speedup']}x, cpu_count={payload['cpu_count']}); "
        f"wrote {JSON_PATH.name}"
    )
