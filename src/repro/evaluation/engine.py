"""The evaluation dispatcher.

``evaluate(query, db)`` picks the cheapest applicable strategy:

* acyclic queries → Yannakakis (``O(|D| · |Q|)``-style),
* bounded hypertree width → hypertree evaluation (``|D|^k``),
* bounded treewidth of ``G(Q)`` → variable elimination (``|D|^(k+1)``),
* otherwise → backtracking.

The explicit ``method`` argument selects a strategy unconditionally; the
benchmarks use that to contrast the paper's complexity regimes.
"""

from __future__ import annotations

from typing import Callable, Literal

from repro.cq.query import ConjunctiveQuery
from repro.cq.structure import Structure
from repro.evaluation.kernels import DEFAULT_ENGINE
from repro.evaluation.naive import (
    backtracking_evaluate,
    hom_evaluate,
    naive_join_evaluate,
)
from repro.evaluation.stats import EvalStats
from repro.evaluation.treewidth_eval import treewidth_evaluate
from repro.evaluation.hypertree_eval import hypertree_evaluate
from repro.evaluation.yannakakis import yannakakis_evaluate
from repro.hypergraphs.gyo import is_acyclic_query
from repro.hypergraphs.treewidth import treewidth_exact

Answer = frozenset[tuple]
Method = Literal[
    "auto", "yannakakis", "treewidth", "hypertree", "backtracking", "naive", "hom"
]

#: Treewidth up to which the auto dispatcher uses variable elimination.
AUTO_TREEWIDTH_LIMIT = 3


def evaluate(
    query: ConjunctiveQuery,
    db: Structure,
    *,
    method: Method = "auto",
    stats: EvalStats | None = None,
    engine: str = DEFAULT_ENGINE,
) -> Answer:
    """Evaluate ``query`` on ``db``; returns the set of answer tuples.

    A Boolean query returns ``{()}`` for true and ``{}`` for false, matching
    the convention of Section 2.  ``engine`` selects the relational kernels
    (``"columnar"`` hash-batch engine, or ``"tuple"`` — the original
    set-of-tuples oracle); ``backtracking`` and ``hom`` have no
    materialized relations and ignore it.
    """
    strategies: dict[str, Callable[[], Answer]] = {
        "yannakakis": lambda: yannakakis_evaluate(query, db, stats, engine=engine),
        "treewidth": lambda: treewidth_evaluate(query, db, None, stats, engine=engine),
        "hypertree": lambda: hypertree_evaluate(query, db, None, stats, engine=engine),
        "backtracking": lambda: backtracking_evaluate(query, db, stats),
        "naive": lambda: naive_join_evaluate(query, db, stats, engine=engine),
        "hom": lambda: hom_evaluate(query, db),
    }
    if method != "auto":
        if method not in strategies:
            raise ValueError(f"unknown method {method!r}")
        return strategies[method]()

    if is_acyclic_query(query):
        return yannakakis_evaluate(query, db, stats, engine=engine)
    width = treewidth_exact(query.graph())
    if width <= AUTO_TREEWIDTH_LIMIT:
        return treewidth_evaluate(query, db, width, stats, engine=engine)
    return backtracking_evaluate(query, db, stats)


def is_in_answer(
    query: ConjunctiveQuery,
    db: Structure,
    candidate: tuple,
    *,
    method: Method = "auto",
    engine: str = DEFAULT_ENGINE,
) -> bool:
    """Membership test ``candidate ∈ Q(D)`` (the paper's decision problem)."""
    if len(candidate) != len(query.head):
        raise ValueError("candidate arity differs from the query head")
    return candidate in evaluate(query, db, method=method, engine=engine)
