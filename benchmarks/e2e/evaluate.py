"""The evaluate workload: approximate a pattern, then evaluate it on data.

The paper's argument is that a C-approximation is computed once, from the
query alone, and then evaluated with bounded-width algorithms on large
data.  Each operation here is one such user call: ``approximate`` under a
fresh engine, then ``evaluate`` with the default columnar engine.  The
patterns cover the dispatcher's regimes: an acyclic chain (Yannakakis),
cyclic digraph patterns whose approximations are acyclic, and a TW(2)
approximation that goes to ``treewidth_evaluate``.  The evaluation kernels
do nearly all the work; approximation takes milliseconds.

Data comes from the Zipf-skewed streaming generator with fixed seeds; the
run's seed relabels every database through a random permutation of its
domain, so each seed is a different but isomorphic instance and answers
map back to the reference's labelling through the inverse permutation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import repro.core as core
import repro.evaluation as evaluation
from repro.core import ApproximationConfig, class_from_name
from repro.cq import parse_query
from repro.cq.structure import Structure
from repro.evaluation import EvalStats
from repro.workloads import chain_join_query, stream_tuples

from common import (
    BASELINE_PASSES,
    TRACED_PASSES,
    Measurement,
    TraceReport,
    fresh_engine,
    pass_measurement,
    rename_preserving_order,
    traced_passes,
)
from harness import HostSpeed, cpu_seconds, run_passes
from reference import answer_summary, canonical_text, load_reference
from trace import evaluation_targets, pipeline_targets

WORKLOAD = "evaluate"


@dataclass(frozen=True)
class Pattern:
    name: str
    query: str
    cls: str
    database: str


PATTERNS = (
    Pattern("chain4/AC", str(chain_join_query(4)), "AC", "chain"),
    Pattern("C4/TW1", "Q(a) :- E(a,b), E(b,c), E(c,d), E(d,a)", "TW1", "graph"),
    Pattern(
        "C5+chord/TW1",
        "Q(a,c) :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,a), E(a,c)",
        "TW1",
        "graph",
    ),
    Pattern(
        "K4/TW2",
        "Q(a) :- E(a,b), E(a,c), E(a,d), E(b,c), E(b,d), E(c,d)",
        "TW2",
        "graph",
    ),
    Pattern(
        "W4/TW2 (treewidth_evaluate)",
        "Q(a) :- E(a,b), E(b,c), E(c,a), E(a,d), E(d,b), E(c,d)",
        "TW2",
        "small",
    ),
)


@dataclass(frozen=True)
class Data:
    relations: tuple[str, ...]
    tuples_per_relation: int
    domain: int
    skew: float
    seed: int


#: The full instance holds 460k tuples; the smoke instance 50k.  The TW(2)
#: pattern gets its own smaller graph: ``treewidth_evaluate`` builds bags
#: of up to three variables, which costs far more per edge.
DATA = {
    "chain": Data(("R0", "R1", "R2", "R3"), 50_000, 24_000, 0.4, 11),
    "graph": Data(("E",), 200_000, 40_000, 0.5, 12),
    "small": Data(("E",), 60_000, 12_000, 0.5, 13),
}
DATA_SMOKE = {
    "chain": Data(("R0", "R1", "R2", "R3"), 5_000, 2_400, 0.4, 11),
    "graph": Data(("E",), 30_000, 8_000, 0.5, 12),
    "small": Data(("E",), 10_000, 3_000, 0.5, 13),
}

#: Passes of an untraced run (full, smoke), sized to about fifteen seconds
#: on a 2-CPU host whose calibration loop takes 80 ms.
PASSES = (11, 2)

_CONFIG = ApproximationConfig(max_extra_atoms=0)


def generate(data: Data, labels: list[int]) -> Structure:
    """The instance with value ``v`` relabelled to ``labels[v]``."""
    rng = random.Random(data.seed)

    def rows():
        for u, v in stream_tuples(
            2, data.tuples_per_relation, data.domain, skew=data.skew, rng=rng
        ):
            yield labels[u], labels[v]

    # Structure consumes the relations in order, so they draw from the one
    # generator state in a fixed sequence.
    return Structure(
        {name: rows() for name in data.relations},
        vocabulary={name: 2 for name in data.relations},
        domain=range(data.domain),
    )


class EvaluateWorkload:
    name = WORKLOAD

    def __init__(self, seed: int, smoke: bool, host: HostSpeed) -> None:
        self.seed = seed
        self.smoke = smoke
        self.host = host
        self.data = DATA_SMOKE if smoke else DATA
        self.passes = PASSES[1 if smoke else 0]
        self.plan = {"passes": self.passes}
        self.failures: list[str] = []
        self.checked = 0
        self._verified: set = set()

    def setup(self) -> None:
        self.reference = load_reference(WORKLOAD, self.smoke)["patterns"]
        self.databases, self.inverse = {}, {}
        for key, data in self.data.items():
            labels = list(range(data.domain))
            random.Random(f"{self.seed}:{key}").shuffle(labels)
            inverse = [0] * data.domain
            for value, label in enumerate(labels):
                inverse[label] = value
            self.databases[key] = generate(data, labels)
            self.inverse[key] = inverse
        rng = random.Random(f"{WORKLOAD}:{self.seed}")
        self.queries = {
            p.name: rename_preserving_order(parse_query(p.query), rng)
            for p in PATTERNS
        }
        # One warm-up pass: first-call costs (lazy imports, numpy
        # dispatch) belong to set-up, not to the first timed pass.
        _, outputs = self._pass(0)
        self._check(outputs)

    def close(self) -> None:
        pass

    def _pass(self, index: int, eval_stats: dict | None = None, tracer=None):
        order = list(PATTERNS)
        random.Random(f"{self.seed}:pass:{index}").shuffle(order)
        ops, outputs = [], []
        for pattern in order:
            if tracer is not None:
                tracer.op = f"{index}:{pattern.name}"
            self.host.probe()
            stats = EvalStats()
            fresh_engine()
            cpu = cpu_seconds()
            started = time.perf_counter()
            approximation = core.approximate(
                self.queries[pattern.name],
                class_from_name(pattern.cls),
                method="exact",
                config=_CONFIG,
            )
            approximated = time.perf_counter()
            answers = evaluation.evaluate(
                approximation, self.databases[pattern.database], stats=stats
            )
            finished = time.perf_counter()
            ops.append((pattern.name, finished - started, cpu_seconds() - cpu))
            outputs.append((pattern, approximation, answers))
            if eval_stats is not None:
                eval_stats.setdefault("approx_s", []).append(approximated - started)
                eval_stats.setdefault("stats", []).append(stats)
        return ops, outputs

    def _check(self, outputs) -> None:
        for pattern, approximation, answers in outputs:
            self.checked += 1
            expected = self.reference[pattern.name]
            text = str(approximation)
            if (pattern.name, text) not in self._verified:
                if canonical_text(approximation.tableau()) != expected["approximation"]:
                    self.failures.append(f"{pattern.name}: wrong approximation")
                    continue
                self._verified.add((pattern.name, text))
            summary = answer_summary(answers, self.inverse[pattern.database])
            if summary != {"count": expected["count"], "sha256": expected["sha256"]}:
                self.failures.append(f"{pattern.name}: wrong answers")

    def measure(self) -> Measurement:
        passes = run_passes(self._pass, self._check, self.passes)
        return pass_measurement(passes, self.checked, self.failures)

    def trace(self) -> TraceReport:
        untraced = run_passes(self._pass, self._check, BASELINE_PASSES)
        eval_stats: dict = {}
        tracer, metrics, table = traced_passes(
            lambda i, tracer: self._pass(i, eval_stats, tracer),
            self._check,
            untraced,
            pipeline_targets() + evaluation_targets(),
            self.host,
        )
        first = eval_stats["stats"][: len(PATTERNS)]
        for counter in ("rows_scanned", "rows_hashed", "rows_emitted"):
            metrics[f"evaluation.{counter}"] = sum(
                bucket[counter] for stats in first for bucket in stats.operators.values()
            )
        metrics["evaluation.approx_s"] = sum(eval_stats["approx_s"]) / TRACED_PASSES
        return TraceReport(metrics, self.checked, len(self.failures), [table], tracer)


def write_reference(smoke: bool) -> dict:
    """Approximations plus tuple-engine answers on the base labelling."""
    patterns = {}
    data = DATA_SMOKE if smoke else DATA
    databases = {
        key: generate(spec, list(range(spec.domain))) for key, spec in data.items()
    }
    for pattern in PATTERNS:
        fresh_engine()
        approximation = core.approximate(
            parse_query(pattern.query),
            class_from_name(pattern.cls),
            method="exact",
            config=_CONFIG,
        )
        database = databases[pattern.database]
        oracle = evaluation.evaluate(approximation, database, engine="tuple")
        columnar = evaluation.evaluate(approximation, database)
        if oracle != columnar:
            raise SystemExit(f"{pattern.name}: columnar answers differ from the oracle")
        patterns[pattern.name] = {
            "approximation": canonical_text(approximation.tableau()),
            **answer_summary(oracle),
        }
    return {"patterns": patterns}
