"""Bounded-treewidth CQ evaluation by variable (bucket) elimination.

``G(Q)`` of treewidth ``k`` has an elimination order in which every
variable has at most ``k`` neighbors in the filled graph when it goes.
Each atom is scanned once.  The non-head variables are eliminated first,
in that order, then the head variables.  Eliminating a variable joins its
bucket (the relations that mention it, and every relation whose columns
lie within theirs) and passes the join on with the variable projected
away.  Every intermediate is thus a join of real atoms over at most
``k + 1`` variables besides head variables, never a product with the
active domain: the ``|D|^(k+1)`` bound of treewidth-based evaluation
[Chekuri–Rajaraman, Flum–Frick–Grohe] for a Boolean query.

The join of a head variable's bucket is also kept as its bag.  A bag
holds only tuples that agree with everything eliminated before it, so
joining the bags back in reverse order only ever extends tuples of the
answer: no intermediate of that pass is larger than the answer.
"""

from __future__ import annotations

from repro.cq.query import ConjunctiveQuery
from repro.cq.structure import Structure
from repro.evaluation.kernels import DEFAULT_ENGINE, make_kernel
from repro.evaluation.stats import EvalStats
from repro.hypergraphs.treewidth import elimination_order, treewidth_exact

Answer = frozenset[tuple]


def _join(kernel, a, b):
    """``a ⋈ b``, hashing the smaller side."""
    return kernel.join(a, b) if len(a) >= len(b) else kernel.join(b, a)


def _join_bucket(kernel, bucket: list):
    """The join of ``bucket``, cut short once it is empty.

    It starts from the smallest relation, and each step joins the one that
    shares the most columns with the join so far (the smaller on a tie),
    so a join that filters comes before one that only grows.
    """
    remaining = sorted(bucket, key=len)
    current = remaining.pop(0)
    while remaining and not current.is_empty:
        columns = set(current.columns)
        rel = max(remaining, key=lambda r: len(columns.intersection(r.columns)))
        remaining.remove(rel)
        current = _join(kernel, current, rel)
    return current


def treewidth_evaluate(
    query: ConjunctiveQuery,
    db: Structure,
    k: int | None = None,
    stats: EvalStats | None = None,
    *,
    engine: str = DEFAULT_ENGINE,
) -> Answer:
    """Evaluate by eliminating the variables of ``Q``, non-head variables
    first, along a width-``k`` elimination order of ``G(Q)``.

    ``k`` defaults to the exact treewidth of the query; a query of larger
    treewidth raises ``ValueError``.
    """
    graph = query.graph()
    if k is None:
        k = max(treewidth_exact(graph), 0)
    order = elimination_order(graph, k)
    if order is None:
        raise ValueError(f"query treewidth exceeds {k}")

    kernel = make_kernel(engine, stats)
    relations = []
    for atom in query.atoms:
        relations.append(kernel.atom_bindings(db, atom))
        if relations[-1].is_empty:
            return frozenset()

    head = set(query.head)
    bags = []
    for variable in sorted(order, key=lambda v: v in head):
        columns = {c for r in relations if variable in r.columns for c in r.columns}
        bucket = [rel for rel in relations if columns.issuperset(rel.columns)]
        relations = [rel for rel in relations if not columns.issuperset(rel.columns)]
        joined = _join_bucket(kernel, bucket)
        if joined.is_empty:
            return frozenset()
        if variable in head:
            bags.append(joined)
        rest = [c for c in joined.columns if c != variable]
        if rest:
            relations.append(kernel.project(joined, rest))

    answer = bags.pop() if bags else kernel.unit()
    while bags:
        answer = _join(kernel, answer, bags.pop())
    return kernel.project_answer(answer, query.head)
