"""Empirical approximation quality — the quantitative angle of Section 7.

The paper develops the *qualitative* theory and leaves quantitative
guarantees (how often does an approximation disagree?) to future work.
This module provides the measurement tooling: evaluate ``Q`` and ``Q'``
side by side over sampled databases and report the disagreement statistics.
For an underapproximation the only possible disagreement is a false
negative (``ā ∈ Q(D) \\ Q'(D)``), which :func:`disagreement` verifies,
one database at a time in the calling process.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

from repro.cq.query import ConjunctiveQuery
from repro.cq.structure import Structure
from repro.evaluation.engine import evaluate
from repro.evaluation.kernels import DEFAULT_ENGINE


@dataclass(frozen=True)
class QualityReport:
    """Aggregated agreement statistics over sampled databases."""

    samples: int
    exact_answers: int
    approx_answers: int
    missed_answers: int          # in Q(D) but not Q'(D) — the only legal gap
    wrong_answers: int           # in Q'(D) but not Q(D) — must stay 0
    agreeing_databases: int      # databases with identical answer sets

    @property
    def recall(self) -> float:
        """Fraction of exact answers the approximation recovered."""
        if self.exact_answers == 0:
            return 1.0
        return self.approx_answers / self.exact_answers

    @property
    def agreement_rate(self) -> float:
        if self.samples == 0:
            return 1.0
        return self.agreeing_databases / self.samples

    @property
    def is_sound(self) -> bool:
        """Underapproximation soundness: no wrong answers anywhere."""
        return self.wrong_answers == 0


def disagreement(
    query: ConjunctiveQuery,
    approximation: ConjunctiveQuery,
    databases: Iterable[Structure],
    *,
    exact_method: str = "auto",
    approx_method: str = "auto",
) -> QualityReport:
    """Measure ``Q`` vs ``Q'`` over the given databases.

    The database stream is consumed lazily, one database at a time, so a
    generated stream is never held in memory.
    """
    samples = exact_total = approx_total = missed = wrong = agreeing = 0
    for db in databases:
        exact = evaluate(query, db, method=exact_method)
        approx = evaluate(approximation, db, method=approx_method)
        samples += 1
        exact_total += len(exact)
        approx_total += len(approx & exact)
        missed += len(exact - approx)
        wrong += len(approx - exact)
        agreeing += exact == approx
    return QualityReport(
        samples=samples,
        exact_answers=exact_total,
        approx_answers=approx_total,
        missed_answers=missed,
        wrong_answers=wrong,
        agreeing_databases=agreeing,
    )


def random_database_stream(
    generator: Callable[[int], Structure], count: int
) -> Iterable[Structure]:
    """A convenience stream of ``count`` databases from a seeded generator."""
    return (generator(seed) for seed in range(count))


@dataclass(frozen=True)
class ApproxEvalReport:
    """One approximate-then-evaluate run: the paper's headline trade.

    Compute a C-approximation ``Q'`` of ``Q``, evaluate both on the same
    instance, and report what the approximation bought (wall time) and
    what it cost (recall).  ``wrong_answers`` must be 0 — a
    C-approximation is an underapproximation (``Q' ⊆ Q``), so the only
    legal disagreement is a missed answer (the containment gap).
    """

    query: str
    approximation: str
    cls: str
    engine: str
    db_tuples: int
    exact_answers: int
    approx_answers: int
    missed_answers: int
    wrong_answers: int
    approximation_seconds: float
    exact_eval_seconds: float
    approx_eval_seconds: float

    @property
    def recall(self) -> float:
        """Fraction of exact answers the approximation recovered."""
        if self.exact_answers == 0:
            return 1.0
        return self.approx_answers / self.exact_answers

    @property
    def containment_gap(self) -> int:
        """Answers of ``Q(D)`` the approximation misses (``missed_answers``)."""
        return self.missed_answers

    @property
    def walltime_ratio(self) -> float:
        """Exact-over-approximate evaluation time (``> 1`` = approx wins)."""
        if self.approx_eval_seconds <= 0:
            return float("inf")
        return self.exact_eval_seconds / self.approx_eval_seconds

    @property
    def is_sound(self) -> bool:
        return self.wrong_answers == 0

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["recall"] = self.recall
        payload["containment_gap"] = self.containment_gap
        payload["walltime_ratio"] = self.walltime_ratio
        payload["is_sound"] = self.is_sound
        return payload


def approximate_then_evaluate(
    query: ConjunctiveQuery,
    cls,
    db: Structure,
    *,
    engine: str = DEFAULT_ENGINE,
    approx_method: str = "auto",
    exact_eval_method: str = "auto",
    approx_eval_method: str = "auto",
    config=None,
) -> ApproxEvalReport:
    """The end-to-end pitch of the paper, measured on one instance.

    Approximates ``Q`` by a member of ``cls`` (the query-side pipeline),
    evaluates both queries on ``db`` through the selected evaluation
    ``engine``, and reports recall, containment gap and the wall-time
    ratio.  The approximation time is reported separately: it depends only
    on ``|Q|``, so on growing data it amortizes to zero — exactly the
    argument of the introduction.
    """
    from repro.core.approximation import DEFAULT_CONFIG, approximate

    if config is None:
        config = DEFAULT_CONFIG
    started = time.perf_counter()
    approximation = approximate(query, cls, method=approx_method, config=config)
    approximated = time.perf_counter()
    exact = evaluate(query, db, method=exact_eval_method, engine=engine)
    exact_done = time.perf_counter()
    approx = evaluate(approximation, db, method=approx_eval_method, engine=engine)
    approx_done = time.perf_counter()
    return ApproxEvalReport(
        query=str(query),
        approximation=str(approximation),
        cls=cls.name,
        engine=engine,
        db_tuples=db.total_tuples,
        exact_answers=len(exact),
        approx_answers=len(approx & exact),
        missed_answers=len(exact - approx),
        wrong_answers=len(approx - exact),
        approximation_seconds=approximated - started,
        exact_eval_seconds=exact_done - approximated,
        approx_eval_seconds=approx_done - exact_done,
    )
