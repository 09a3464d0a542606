"""Identifying approximations — the DP-complete decision problem.

``Treewidth-k Approximation`` (Section 4.3): given ``Q`` and a treewidth-k
query ``Q'``, is ``Q'`` a TW(k)-approximation of ``Q``?  The procedure has
the DP shape the paper describes:

1. an NP part — check ``Q' ⊆ Q`` (a tableau homomorphism), and
2. a coNP part — check that no ``Q'' ∈ C`` satisfies ``Q' ⊂ Q'' ⊆ Q``.

For the second part the paper observes that a witness ``Q''`` can always be
chosen of bounded size: for graph-based classes its tableau is a
class-member homomorphic image of ``T_Q`` (the ``Im(g)`` argument in the
DP-membership proof), so enumerating quotients is a complete witness search.
For hypergraph-based classes the bounded witness space additionally carries
extension atoms (Claim 6.2); the cap is configurable.  Both are the
candidate stream the approximation pipeline reduces
(:mod:`repro.core.quotients`).

Theorem 4.12 shows the problem is DP-complete even for acyclic digraph
cores; the benchmark ``bench_identification`` measures this procedure's
exponential witness search directly.
"""

from __future__ import annotations

from repro.cq.containment import is_contained_in
from repro.cq.query import ConjunctiveQuery
from repro.cq.tableau import Tableau
from repro.core.approximation import ApproximationConfig, DEFAULT_CONFIG
from repro.core.classes import QueryClass
from repro.core.pipeline import MembershipTester, PipelineStats, _candidate_source
from repro.homomorphism.orders import hom_le


def better_witness(
    query: ConjunctiveQuery,
    candidate: ConjunctiveQuery,
    cls: QueryClass,
    config: ApproximationConfig = DEFAULT_CONFIG,
) -> ConjunctiveQuery | None:
    """A ``Q'' ∈ C`` with ``candidate ⊂ Q'' ⊆ query``, or ``None``.

    Searches the bounded witness space of the class: the approximation
    pipeline's stage-1 stream, its class members checked by a
    :class:`~repro.core.pipeline.MembershipTester` and only those
    materialized.  In tableau terms a witness ``d`` satisfies ``T_Q → d``,
    ``d → T_candidate`` and ``T_candidate ↛ d``; the first one in stream
    order is returned.
    """
    candidate_tab = candidate.tableau()
    tester = MembershipTester(cls, PipelineStats())
    for stage1 in _candidate_source(
        query.tableau(),
        cls,
        max_extra_atoms=config.max_extra_atoms,
        allow_fresh=config.allow_fresh,
        known_rejected=tester.known_rejected,
    ):
        if not tester(stage1):
            continue
        witness = stage1.materialize()
        if hom_le(witness, candidate_tab) and not hom_le(candidate_tab, witness):
            return ConjunctiveQuery.from_tableau(witness, prefix="w")
    return None


def is_approximation(
    query: ConjunctiveQuery,
    candidate: ConjunctiveQuery,
    cls: QueryClass,
    config: ApproximationConfig = DEFAULT_CONFIG,
) -> bool:
    """Decide whether ``candidate`` is a C-approximation of ``query``.

    Exact for graph-based classes up to ``config.exact_limit`` variables in
    ``query``; for hypergraph-based classes, exact relative to the extension
    cap.  Raises beyond the cap rather than answering unsoundly.
    """
    tableau = query.tableau()
    if len(tableau.structure.domain) > config.exact_limit:
        raise ValueError(
            f"query has {len(tableau.structure.domain)} variables; "
            f"identification is capped at exact_limit={config.exact_limit}"
        )
    if not cls.contains_query(candidate):
        return False
    if not is_contained_in(candidate, query):
        return False
    return better_witness(query, candidate, cls, config) is None


def is_exact_homomorphism_target(source: Tableau, target: Tableau) -> bool:
    """The ``Exact Acyclic Homomorphism`` predicate of Theorem 4.12.

    True iff ``source → target`` and there is no homomorphism from
    ``source`` into a *proper substructure* of ``target``.
    """
    if not hom_le(source, target):
        return False
    structure = target.structure
    for name, row in structure.facts():
        smaller = structure.remove_facts([(name, row)])
        try:
            smaller_tab = Tableau(smaller, target.distinguished)
        except ValueError:
            continue  # removing the fact stranded a distinguished element
        if hom_le(source, smaller_tab):
            return False
    return True
