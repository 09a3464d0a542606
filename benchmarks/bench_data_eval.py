"""EXP DATA-EVAL — the columnar hash-kernel engine vs the tuple-at-a-time
baseline, plus the approximate-then-evaluate quality trade.

Two measurements, both on generated multi-hundred-thousand-tuple instances
(streamed, Zipf-skewed — ``repro.workloads.random_data``):

* **Columnar speedup** (the headline): Yannakakis over the columnar engine
  (``engine="columnar"``, numpy fast path when installed) vs the original
  set-of-tuples oracle (``engine="tuple"``) on a 1M-tuple acyclic 4-chain
  join.  Answers are asserted bit-equal; the target is ≥ 10x.  The
  generated database stores int64 arrays, and the oracle reads its
  frozenset-of-tuples view, which is built once on first use; that build
  is timed apart as ``tuple_view_s`` and is in neither side's time.
* **Approximate-then-evaluate** (the paper's pitch, end to end): a TW(1)
  approximation of the cyclic C4 pattern query is computed from the query
  alone, then both queries are evaluated on the same skewed digraph;
  reported are recall, the containment gap (missed answers — the only
  legal disagreement for an underapproximation), and the exact/approx
  evaluation wall-time ratio.

Writes machine-readable ``BENCH_data_eval.json`` at the repository root
(headline: ``headline.speedup``).  ``--smoke`` runs scaled-down instances and only
asserts (columnar faster than tuple, approximation sound) without touching
the JSON — the cheap mode ``scripts/verify.sh`` runs on every pass.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.core import TW1, approximate_then_evaluate
from repro.cq import parse_query
from repro.evaluation import EvalStats, backend_name, yannakakis_evaluate
from repro.workloads import chain_join_db, chain_join_query, scaled_digraph_db
from paperfmt import table, write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_data_eval.json"

#: The headline instance: 4 relations x 250k tuples ≈ 1M, Zipf 0.4.
CHAIN_FULL = dict(relations=4, tuples=250_000, domain=120_000, skew=0.4, seed=7)
CHAIN_SMOKE = dict(relations=4, tuples=30_000, domain=15_000, skew=0.4, seed=7)

#: The quality instance: C4 pattern on a skewed digraph.
QUALITY_QUERY = "Q(x) :- E(x, y), E(y, z), E(z, w), E(w, x)"
QUALITY_FULL = dict(nodes=2_000, edges=40_000, skew=0.5, seed=11)
QUALITY_SMOKE = dict(nodes=300, edges=2_500, skew=0.5, seed=11)

TARGET_SPEEDUP_FULL = 10.0
TARGET_SPEEDUP_SMOKE = 2.0


def chain_row(params: dict, *, target: float) -> dict:
    """Yannakakis columnar vs tuple on one chain instance (bit-equal)."""
    db = chain_join_db(
        params["relations"],
        params["tuples"],
        params["domain"],
        skew=params["skew"],
        seed=params["seed"],
    )
    query = chain_join_query(params["relations"])
    stats = EvalStats()
    started = time.perf_counter()
    columnar = yannakakis_evaluate(query, db, stats, engine="columnar")
    columnar_s = time.perf_counter() - started
    # The oracle reads the tuple view, which an int database builds once on
    # first use; time that build on its own, not as part of the oracle.
    started = time.perf_counter()
    db.relations
    tuple_view_s = time.perf_counter() - started
    started = time.perf_counter()
    tuple_answers = yannakakis_evaluate(query, db, engine="tuple")
    tuple_s = time.perf_counter() - started
    assert columnar == tuple_answers, "columnar answers diverge from the oracle"
    speedup = tuple_s / columnar_s
    row = {
        "workload": f"chain{params['relations']}x{params['tuples'] // 1000}k",
        "db_tuples": db.total_tuples,
        "domain": params["domain"],
        "skew": params["skew"],
        "answers": len(columnar),
        "backend": backend_name(),
        "tuple_s": round(tuple_s, 4),
        "columnar_s": round(columnar_s, 4),
        "tuple_view_s": round(tuple_view_s, 4),
        "speedup": round(speedup, 2),
        "target_speedup": target,
        "rows_hashed": stats.rows_hashed,
        "rows_emitted": stats.rows_emitted,
    }
    assert speedup >= target, (
        f"columnar speedup {speedup:.1f}x below target {target}x "
        f"on {row['workload']}"
    )
    return row


def quality_row(params: dict) -> dict:
    """Approximate-then-evaluate on one digraph instance (must be sound)."""
    query = parse_query(QUALITY_QUERY)
    db = scaled_digraph_db(
        params["nodes"], params["edges"], skew=params["skew"], seed=params["seed"]
    )
    report = approximate_then_evaluate(query, TW1, db)
    assert report.is_sound, "approximation produced wrong answers"
    return {
        "workload": f"C4/TW1 digraph {params['nodes']}n",
        "db_tuples": report.db_tuples,
        "skew": params["skew"],
        "approximation": report.approximation,
        "exact_answers": report.exact_answers,
        "recall": round(report.recall, 4),
        "containment_gap": report.containment_gap,
        "approximation_s": round(report.approximation_seconds, 4),
        "exact_eval_s": round(report.exact_eval_seconds, 4),
        "approx_eval_s": round(report.approx_eval_seconds, 4),
        "walltime_ratio": round(report.walltime_ratio, 2),
    }


def run_all() -> dict:
    chain = chain_row(CHAIN_FULL, target=TARGET_SPEEDUP_FULL)
    quality = quality_row(QUALITY_FULL)
    return {
        "benchmark": "data_eval",
        "description": (
            "columnar hash-kernel evaluation (numpy fast path when "
            "installed) vs the tuple-at-a-time oracle on a 1M-tuple "
            "acyclic chain join, plus the approximate-then-evaluate "
            "recall / containment-gap / wall-time trade on a skewed "
            "digraph (C4 pattern vs its TW(1) approximation)"
        ),
        "backend": backend_name(),
        "chain": chain,
        "quality": quality,
        "headline": {
            "name": chain["workload"],
            "speedup": chain["speedup"],
            "target_speedup": TARGET_SPEEDUP_FULL,
            "approx_walltime_ratio": quality["walltime_ratio"],
            "approx_recall": quality["recall"],
            "note": (
                "Yannakakis, columnar vs tuple-at-a-time on the 1M-tuple "
                "acyclic 4-chain (bit-equal answers); the approx row is "
                "exact-over-approximate evaluation wall time for C4 vs its "
                "TW(1) approximation on a 40k-edge skewed digraph"
            ),
        },
    }


def smoke() -> None:
    """Cheap assertions for scripts/verify.sh — no JSON rewrite."""
    chain = chain_row(CHAIN_SMOKE, target=TARGET_SPEEDUP_SMOKE)
    quality = quality_row(QUALITY_SMOKE)
    print(
        f"smoke ok: columnar {chain['speedup']}x over tuple "
        f"({chain['backend']} backend, {chain['db_tuples']} tuples); "
        f"approx sound, recall {quality['recall']}, "
        f"ratio {quality['walltime_ratio']}x"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down assertion-only run (no BENCH_data_eval.json write)",
    )
    args = parser.parse_args()
    if args.smoke:
        smoke()
        return
    payload = run_all()
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    chain, quality = payload["chain"], payload["quality"]
    body = table(
        ["workload", "tuples", "tuple(s)", "columnar(s)", "speedup", "backend"],
        [
            [
                chain["workload"],
                chain["db_tuples"],
                chain["tuple_s"],
                chain["columnar_s"],
                f"{chain['speedup']}x",
                chain["backend"],
            ]
        ],
    )
    body += "\n\n" + table(
        ["workload", "tuples", "recall", "gap", "exact(s)", "approx(s)", "ratio"],
        [
            [
                quality["workload"],
                quality["db_tuples"],
                quality["recall"],
                quality["containment_gap"],
                quality["exact_eval_s"],
                quality["approx_eval_s"],
                f"{quality['walltime_ratio']}x",
            ]
        ],
    )
    write_report(
        "bench_data_eval",
        "Columnar evaluation engine + approximate-then-evaluate quality",
        body,
    )
    print(f"wrote {JSON_PATH}")


if __name__ == "__main__":
    main()
