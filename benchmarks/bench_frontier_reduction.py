"""EXP FRONTIER-REDUCTION — dominance-aware fine-to-coarse reduction vs.
the insertion-order baseline.

Stage 3 of the approximation pipeline (the →-minimal ``Frontier``) used to
dominate member-heavy *plain quotient* runs: with nearly every candidate a
class member, insertion (generation) order pays an engine-backed dominance
scan per candidate and a full eviction scan per admission.  The
dominance-aware reduction engine replays the stream **fine-to-coarse**
(candidates bucketed by descending block count), so a quotient meets the
frontier only after every strictly finer quotient; the partition-coarsening
fast path and the refinement index then decide most admissions with zero
``hom_le`` searches, while forward representative repair plus a final
generation-order sort keep the result **bit-identical** to the serial
baseline (enforced per workload below).

The measurement:

* **Reduction speedup** (the headline): the same pre-generated candidate
  stream fed through ``_reduce_inline`` in insertion order vs.
  fine-to-coarse order, under fresh engines — stage 1 is identical in both,
  so the comparison isolates what this engine rebuilt.  Headline workload:
  a 9-variable chordal cycle outside HTW(2) whose ~8.5k deduplicated
  quotients are ~99% members.  End-to-end ``run_pipeline`` wall times are
  reported alongside.

Writes machine-readable ``BENCH_frontier_reduction.json`` at the repository
root so the perf trajectory is tracked across PRs.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from repro.core import HypertreeClass, TreewidthClass, run_pipeline
from repro.core.pipeline import MembershipTester, PipelineStats, _reduce_inline
from repro.core.quotients import iter_quotient_candidates
from repro.homomorphism.engine import HomEngine
import repro.homomorphism.engine as engine_module
from repro.workloads import cycle_with_chords
from paperfmt import table, write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_frontier_reduction.json"


# --------------------------------------------------------------------------
# Workloads: member-heavy plain quotient frontiers (max_extra_atoms=0).
# The 9-variable chordal cycle is the headline — it is outside HTW(2) while
# ~99% of its deduplicated quotients are members, the regime where stage 3
# dominated the run before this engine.
# --------------------------------------------------------------------------


def workloads():
    # (name, query, class, repeats, headline?)
    return [
        (
            "C9+5ch/HTW2 member-heavy",
            cycle_with_chords(9, ((0, 3), (1, 4), (2, 5), (6, 8), (7, 1))),
            HypertreeClass(2),
            1,
            True,
        ),
        (
            "C9+5ch'/HTW2 member-heavy",
            cycle_with_chords(9, ((0, 2), (0, 4), (0, 6), (1, 5), (3, 7))),
            HypertreeClass(2),
            1,
            False,
        ),
        (
            "C8+3ch/HTW2 member-heavy",
            cycle_with_chords(8, ((0, 3), (1, 4), (2, 6))),
            HypertreeClass(2),
            3,
            False,
        ),
        # Member-light: ~35% members, thousands of dominated-but-uncovered
        # partitions — the regime that used to approach the (now retired)
        # _INDEX_CAP backstop.  The sublinear trie index must show no
        # admission slowdown here (fine-to-coarse at least as fast as
        # insertion order) with the index running uncapped.
        (
            "C9+5ch/TW2 member-light",
            cycle_with_chords(9, ((0, 3), (1, 4), (2, 5), (6, 8), (7, 1))),
            TreewidthClass(2),
            1,
            False,
        ),
    ]


def _fresh_engine(fn, repeats: int):
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


def _reduce(tableau, cls, order):
    """Stage 2+3 only: candidates pre-generated outside the timed region."""
    candidates = list(iter_quotient_candidates(tableau))
    stats = PipelineStats()
    started = time.perf_counter()
    frontier = _reduce_inline(iter(candidates), cls, stats, order=order)
    return time.perf_counter() - started, frontier.members, stats


def _member_rate(tableau, cls) -> float:
    """The true member rate of the deduplicated quotient stream.

    Computed with a dedicated pass — the reduction's own ``members``
    counter undercounts (candidates the refinement index absorbs skip
    their checks).
    """
    tester = MembershipTester(cls, PipelineStats())
    candidates = list(iter_quotient_candidates(tableau))
    return sum(1 for c in candidates if tester(c)) / len(candidates)


def run_workload(name, query, cls, repeats, headline):
    tableau = query.tableau()
    assert not cls.contains_tableau(tableau), f"{name}: base must not be in class"
    member_rate = _member_rate(tableau, cls)

    def reduction(order):
        times, members, stats = [], None, None
        for _ in range(repeats):
            saved = engine_module.DEFAULT_ENGINE
            engine_module.DEFAULT_ENGINE = HomEngine()
            try:
                seconds, members, stats = _reduce(tableau, cls, order)
                times.append(seconds)
            finally:
                engine_module.DEFAULT_ENGINE = saved
        return statistics.median(times), members, stats

    base_s, base_members, base_stats = reduction("insertion")
    new_s, new_members, new_stats = reduction("fine_to_coarse")
    assert new_members == base_members, f"{name}: reduction not bit-identical"

    end_base_s, end_base = _fresh_engine(
        lambda: run_pipeline(
            tableau, cls, max_extra_atoms=0, admission_order="insertion"
        ),
        repeats,
    )
    end_new_s, end_new = _fresh_engine(
        lambda: run_pipeline(tableau, cls, max_extra_atoms=0),
        repeats,
    )
    assert end_new.frontier == end_base.frontier, f"{name}: not bit-identical"

    return {
        "workload": name,
        "class": cls.name,
        "variables": len(tableau.structure.domain),
        "candidates": new_stats.generated,
        "member_rate": round(member_rate, 3),
        "frontier_size": len(base_members),
        "reduce_insertion_s": round(base_s, 4),
        "reduce_fine_to_coarse_s": round(new_s, 4),
        "reduce_speedup": round(base_s / new_s, 2) if new_s else None,
        "hom_le_insertion": base_stats.hom_le_calls,
        "hom_le_fine_to_coarse": new_stats.hom_le_calls,
        "resolved_by_order": new_stats.admissions_resolved_by_order,
        "representative_repairs": new_stats.representative_repairs,
        "end_to_end_insertion_s": round(end_base_s, 4),
        "end_to_end_s": round(end_new_s, 4),
        "end_to_end_speedup": (
            round(end_base_s / end_new_s, 2) if end_new_s else None
        ),
    }


def run_all() -> dict:
    specs = workloads()
    rows = [run_workload(*spec) for spec in specs]
    headline_name = next(spec[0] for spec in specs if spec[4])
    headline = next(row for row in rows if row["workload"] == headline_name)
    return {
        "benchmark": "frontier_reduction",
        "description": (
            "fine-to-coarse dominance-aware reduction (coarsening fast "
            "path + refinement index + representative repair) vs the "
            "insertion-order stage-3 baseline on member-heavy plain "
            "quotient frontiers"
        ),
        "cpu_count": os.cpu_count(),
        "workloads": rows,
        "headline": {
            "name": headline["workload"],
            "class": headline["class"],
            "speedup": headline["reduce_speedup"],
            "target_speedup": 3.0,
            "end_to_end_speedup": headline["end_to_end_speedup"],
            "note": (
                "stage-3 reduction (stages 2+3 over a pre-generated "
                "candidate stream) in fine-to-coarse vs insertion order on "
                "the 9-variable member-heavy HTW(2) frontier; results are "
                "bit-identical"
            ),
        },
    }


def main() -> None:
    payload = run_all()
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    body = table(
        [
            "workload",
            "cands",
            "member%",
            "reduce old(s)",
            "reduce new(s)",
            "speedup",
            "hom_le old→new",
            "e2e speedup",
        ],
        [
            [
                row["workload"],
                row["candidates"],
                f"{100 * row['member_rate']:.0f}",
                row["reduce_insertion_s"],
                row["reduce_fine_to_coarse_s"],
                f"{row['reduce_speedup']}x",
                f"{row['hom_le_insertion']}→{row['hom_le_fine_to_coarse']}",
                f"{row['end_to_end_speedup']}x",
            ]
            for row in payload["workloads"]
        ],
    )
    write_report(
        "bench_frontier_reduction",
        "Dominance-aware frontier reduction (fine-to-coarse + repair)",
        body,
    )
    print(f"wrote {JSON_PATH}")


if __name__ == "__main__":
    main()
