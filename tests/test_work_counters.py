"""Exact work-counter gate for the pipeline and the evaluation kernels.

Every ``PipelineStats`` and ``EvalStats`` counter listed below is a
deterministic function of the query (and, for evaluation, of the
instance): no decision reads a clock or depends on the hash seed, and
sharded runs merge in stream order.  So the work a solve or an evaluation does can be
compared exactly, on any host, against ``work_counters.json`` next to this
file.  A counter that rises fails its case; a counter that falls passes
with a warning naming the case and the counter, so the improvement gets
re-referenced instead of going unnoticed.

    PYTHONPATH=src python -m pytest -q tests/test_work_counters.py
    PYTHONPATH=src python tests/test_work_counters.py --write   # re-reference

Each re-reference is recorded in CHANGES.md.
"""

from __future__ import annotations

import json
import random
import sys
import warnings
from pathlib import Path

import pytest

import repro.evaluation as evaluation
import repro.homomorphism.engine as engine_module
from repro.core import (
    ApproximationConfig,
    PipelineStats,
    all_approximations,
    approximate,
    class_from_name,
)
from repro.cq import Structure, parse_query
from repro.evaluation import EvalStats
from repro.workloads import stream_tuples

REFERENCE = Path(__file__).with_name("work_counters.json")

PIPELINE_COUNTERS = (
    "generated",
    "checks_run",
    "hom_le_calls",
    "dominance_tests",
    "late_canonizations",
    "kernel_homs_scanned",
)
EVAL_COUNTERS = ("rows_scanned", "rows_hashed", "rows_emitted")

# The solve queries are the smoke specs of benchmarks/e2e/solve.py
# (PLAIN_SMOKE and EXTENSION_SMOKE), copied as literals.
CHORDED_7 = (
    "Q() :- E(x0, x1), E(x1, x2), E(x2, x3), E(x3, x4), E(x4, x5), "
    "E(x5, x6), E(x6, x0), E(x0, x3), E(x1, x4), E(x2, x5)"
)
DENSE_7 = "Q() :- R(x1,x2,x3), R(x2,x3,x4), R(x4,x5,x6), R(x6,x7,x1)"
CYCLE_7 = (
    "Q() :- E(x0, x1), E(x1, x2), E(x2, x3), E(x3, x4), E(x4, x5), "
    "E(x5, x6), E(x6, x0)"
)
CYCLE_6 = (
    "Q() :- E(x0, x1), E(x1, x2), E(x2, x3), E(x3, x4), E(x4, x5), E(x5, x0)"
)
TERNARY_C3_6 = "Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)"

#: name -> (query, class, max_extra_atoms, allow_fresh)
PLAIN = {
    "C7+3ch/HTW2": (CHORDED_7, "HTW2", 0, False),
    "C7+3ch/TW2": (CHORDED_7, "TW2", 0, False),
    "dense(7v,4atoms)/GHTW1": (DENSE_7, "GHTW1", 0, False),
    "C7/TW1": (CYCLE_7, "TW1", 0, False),
}
EXTENSION = {
    "C6/HTW1 +ext": (CYCLE_6, "HTW1", 1, False),
    "ternary-C3(6v)/AC +ext": (TERNARY_C3_6, "AC", 1, False),
    "C6/HTW1 +fresh-ext": (CYCLE_6, "HTW1", 1, True),
}
SOLVE = {**PLAIN, **EXTENSION}

# The evaluate patterns of benchmarks/e2e/evaluate.py, copied as literals.
#: name -> (query, class, database)
PATTERNS = {
    "chain4/AC": (
        "Q(x0) :- R0(x0, x1), R1(x1, x2), R2(x2, x3), R3(x3, x4)",
        "AC",
        "chain",
    ),
    "C4/TW1": ("Q(a) :- E(a,b), E(b,c), E(c,d), E(d,a)", "TW1", "graph"),
    "C5+chord/TW1": (
        "Q(a,c) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,a), E(a,c)",
        "TW1",
        "graph",
    ),
    "K4/TW2": (
        "Q(a) :- E(a,b), E(a,c), E(a,d), E(b,c), E(b,d), E(c,d)",
        "TW2",
        "graph",
    ),
    "W4/TW2 (treewidth_evaluate)": (
        "Q(a) :- E(a,b), E(b,c), E(c,a), E(a,d), E(d,b), E(c,d)",
        "TW2",
        "small",
    ),
}
#: database -> (relations, tuples per relation, domain, Zipf skew, seed)
DATABASES = {
    "chain": (("R0", "R1", "R2", "R3"), 2_000, 1_000, 0.4, 11),
    "graph": (("E",), 2_000, 600, 0.5, 12),
    "small": (("E",), 2_000, 500, 0.5, 13),
}


def _with_fresh_engine(run):
    """``run()`` under an empty default engine, as a one-shot user has."""
    saved = engine_module.DEFAULT_ENGINE
    engine_module.DEFAULT_ENGINE = engine_module.HomEngine()
    try:
        return run()
    finally:
        engine_module.DEFAULT_ENGINE = saved


def solve_counters(name: str, workers: int) -> dict[str, int]:
    query, cls, max_extra_atoms, allow_fresh = SOLVE[name]
    stats = PipelineStats()
    config = ApproximationConfig(
        max_extra_atoms=max_extra_atoms, allow_fresh=allow_fresh, workers=workers
    )
    _with_fresh_engine(
        lambda: all_approximations(
            parse_query(query), class_from_name(cls), config, stats=stats
        )
    )
    return {counter: getattr(stats, counter) for counter in PIPELINE_COUNTERS}


def _database(key: str) -> Structure:
    relations, count, domain, skew, seed = DATABASES[key]
    rng = random.Random(seed)
    return Structure(
        {
            name: stream_tuples(2, count, domain, skew=skew, rng=rng)
            for name in relations
        },
        vocabulary={name: 2 for name in relations},
        domain=range(domain),
    )


def evaluate_counters(name: str) -> dict[str, int]:
    query, cls, database = PATTERNS[name]
    approximation = _with_fresh_engine(
        lambda: approximate(
            parse_query(query),
            class_from_name(cls),
            method="exact",
            config=ApproximationConfig(max_extra_atoms=0),
        )
    )
    stats = EvalStats()
    evaluation.evaluate(approximation, _database(database), stats=stats)
    return {
        counter: sum(bucket[counter] for bucket in stats.operators.values())
        for counter in EVAL_COUNTERS
    }


#: case id -> how to measure it; ``solve-2w`` reruns the plain specs
#: sharded over two pool workers, which must do the same work every time.
CASES = {
    **{f"solve/{name}": (solve_counters, name, 1) for name in SOLVE},
    **{f"solve-2w/{name}": (solve_counters, name, 2) for name in PLAIN},
    **{f"evaluate/{name}": (evaluate_counters, name) for name in PATTERNS},
}


def measure(case: str) -> dict[str, int]:
    fn, *args = CASES[case]
    return fn(*args)


def _params():
    for case in CASES:
        marks = [pytest.mark.slow] if case.startswith("solve-2w/") else []
        yield pytest.param(case, id=case, marks=marks)


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("case", _params())
def test_work_counters_do_not_rise(case, reference):
    assert case in reference, (
        f"{case}: no reference; run "
        "'PYTHONPATH=src python tests/test_work_counters.py --write'"
    )
    expected, measured = reference[case], measure(case)
    rises = []
    for counter, value in measured.items():
        if value > expected[counter]:
            rises.append(f"{counter} {expected[counter]} -> {value}")
        elif value < expected[counter]:
            warnings.warn(
                f"{case}: {counter} fell {expected[counter]} -> {value}; "
                "re-reference with --write"
            )
    assert not rises, f"{case}: work rose: " + ", ".join(rises)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_work_counters.py --write")
    counters = {case: measure(case) for case in CASES}
    REFERENCE.write_text(json.dumps(counters, indent=2) + "\n")
    print(f"wrote {len(counters)} cases to {REFERENCE}")
