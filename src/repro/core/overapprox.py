"""Syntactic overapproximations — the Section 7 (future work) direction.

The paper's conclusions sketch *overapproximations*: queries from a
tractable class that return **all** correct results (``Q ⊆ Q''``), possibly
with false positives — the dual of the underapproximations studied in the
body.  A full semantic treatment appeared only in the authors' follow-up
work; here we implement the natural *syntactic* variant, which is sound,
simple, and useful in practice:

dropping atoms from a CQ only weakens it, so every subset ``S`` of the body
with a class-member query ``Q_S`` satisfies ``Q ⊆ Q_S``.  A syntactic
C-overapproximation is a ⊆-minimal such ``Q_S`` (equivalently, a maximal
constraint subset whose hypergraph/graph falls in the class).  For Boolean
queries the subset must stay connected to be informative; we keep the
connected component of the head otherwise.

The class filter over the subsets is the pipeline's serial stage 2
(:func:`repro.core.pipeline.iter_membership`), memoized per subset
(hyper)graph.

This is weaker than the semantic notion (some semantic overapproximations
are not atom-subsets), which is exactly why the paper leaves the semantic
theory open; the module documents the gap.
"""

from __future__ import annotations

import itertools

from repro.cq.containment import is_contained_in
from repro.cq.query import ConjunctiveQuery
from repro.core.classes import QueryClass
from repro.core.pipeline import iter_membership
from repro.homomorphism.engine import default_engine


def _subset_queries(query: ConjunctiveQuery) -> list[ConjunctiveQuery]:
    """All well-formed queries from non-empty atom subsets containing the
    head variables."""
    head = set(query.head)
    out = []
    atoms = list(query.atoms)
    for size in range(len(atoms), 0, -1):
        for subset in itertools.combinations(atoms, size):
            used = {v for atom in subset for v in atom.variables}
            if head <= used:
                out.append(ConjunctiveQuery(query.head, subset))
    return out


def syntactic_overapproximations(
    query: ConjunctiveQuery, cls: QueryClass
) -> list[ConjunctiveQuery]:
    """The ⊆-minimal class members among atom-subset weakenings of ``Q``.

    Every returned query ``Q''`` satisfies ``Q ⊆ Q''`` and ``Q'' ∈ C``, and
    no other atom-subset weakening sits strictly between.  Returns ``[Q]``
    itself (minimized) when the query is already in the class.

    The class-membership filter over the (exponentially many) atom subsets
    is the pipeline's stage 2 (:func:`~repro.core.pipeline.iter_membership`):
    each subset query's tableau enters it as its own identity quotient in
    integer form (:meth:`~repro.core.quotients.QuotientCandidate.
    from_tableau`), and verdicts are memoized under the label-free primal
    graph / hypergraph, so subsets with isomorphic (hyper)graphs share one
    check.
    """
    if cls.contains_query(query):
        return [query]
    subsets = _subset_queries(query)
    subset_tableaux = [q.tableau() for q in subsets]
    flags = [is_member for _, is_member in iter_membership(subset_tableaux, cls)]
    members = [q for q, is_member in zip(subsets, flags) if is_member]
    # ``q ⊆ q'`` ⇔ ``T_q' → T_q``; compute each tableau once and compare
    # through the engine, whose memoized hom_le absorbs the quadratic number
    # of order queries among the (often heavily overlapping) subset queries.
    engine = default_engine()
    tableaux = [
        tableau
        for tableau, is_member in zip(subset_tableaux, flags)
        if is_member
    ]
    minimal: list[tuple[ConjunctiveQuery, object]] = []
    for candidate, candidate_tab in zip(members, tableaux):
        if any(
            engine.strictly_below(candidate_tab, other_tab)
            for other_tab in tableaux
        ):
            continue
        if any(
            engine.hom_equivalent(candidate_tab, kept_tab)
            for _, kept_tab in minimal
        ):
            continue
        minimal.append((candidate, candidate_tab))
    return [candidate for candidate, _ in minimal]


def syntactic_overapproximate(
    query: ConjunctiveQuery, cls: QueryClass
) -> ConjunctiveQuery:
    """One syntactic overapproximation (the first minimal one)."""
    results = syntactic_overapproximations(query, cls)
    if not results:
        raise ValueError(f"no atom subset of the query falls in {cls.name}")
    return results[0]


def sandwich(query: ConjunctiveQuery, cls: QueryClass, under: ConjunctiveQuery,
             over: ConjunctiveQuery) -> bool:
    """Check the sandwich ``under ⊆ Q ⊆ over`` with both bounds in class.

    The practical payoff of combining the paper's underapproximations with
    overapproximations: evaluating the two tractable bounds brackets the
    exact answer set.
    """
    return (
        cls.contains_query(under)
        and cls.contains_query(over)
        and is_contained_in(under, query)
        and is_contained_in(query, over)
    )
