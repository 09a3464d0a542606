"""Tight approximations (Proposition 5.6).

``Q'`` is a *tight* C-approximation of ``Q`` when additionally no CQ at all
(from any class) sits strictly between: there is no ``Q''`` with
``Q' ⊂ Q'' ⊂ Q``.  The paper exhibits an infinite family: the digraphs
``G_k`` (two directed paths with shifted cross edges, the core of
``F_k × P_{k+1}`` from the Nešetřil–Tardif gap machinery) and the paths
``P_{k+1}``.

Unlike the identification problem, strict betweenness has no obvious
bounded witness space (the paper derives its gaps from the Nešetřil–Tardif
duality machinery rather than from an algorithm).  ``gap_witness`` therefore
performs a *sound* search over two bounded families — homomorphic images
(quotients) of the upper tableau and fact-substructures of the lower
tableau — verifying all betweenness conditions explicitly.  A returned
witness always disproves the gap; exhaustion certifies the gap relative to
the searched families (which cover the path/gadget instances of
Proposition 5.6: the natural witnesses between path queries are sub-paths
of the lower tableau).  Fact subsets are searched up to 14 facts; past
that, a search that found no quotient witness raises instead of claiming a
gap it never checked.
"""

from __future__ import annotations

import itertools

from repro.cq.containment import is_contained_in, is_strictly_contained_in
from repro.cq.query import ConjunctiveQuery
from repro.cq.structure import Structure
from repro.cq.tableau import Tableau
from repro.core.approximation import ApproximationConfig, DEFAULT_CONFIG
from repro.core.classes import QueryClass
from repro.core.identification import is_approximation
from repro.core.quotients import iter_quotient_tableaux
from repro.graphs.gadgets import tight_g_k
from repro.graphs.oriented_paths import directed_path
from repro.homomorphism.orders import hom_le


def _is_between(witness: Tableau, lower_tab: Tableau, upper_tab: Tableau) -> bool:
    """All four strict-betweenness conditions, checked explicitly.

    ``lower ⊂ W ⊂ upper`` in query terms is, on tableaux:
    ``T_upper → W`` and ``W ↛ T_upper`` (strictly below upper), and
    ``W → T_lower`` and ``T_lower ↛ W`` (strictly above lower).  The
    lower side goes first: a quotient of ``T_upper`` trivially receives
    ``T_upper``, and mapping it into the lower tableau is the cheaper
    refutation.
    """
    return (
        hom_le(witness, lower_tab)
        and not hom_le(lower_tab, witness)
        and hom_le(upper_tab, witness)
        and not hom_le(witness, upper_tab)
    )


def _fact_substructures(tableau: Tableau, *, max_facts: int = 14):
    """All substructures of a tableau induced by non-empty proper fact
    subsets.  Raises ``ValueError`` (on the first ``next``) past
    ``max_facts`` facts, where the ``2^facts`` subsets are not searched: a
    search that skipped them would report a gap it never checked."""
    facts = list(tableau.structure.facts())
    if len(facts) > max_facts:
        raise ValueError(
            f"lower query has {len(facts)} atoms; the substructure search "
            f"of gap checking is capped at {max_facts}"
        )
    needed = set(tableau.distinguished)
    for size in range(1, len(facts)):
        for subset in itertools.combinations(facts, size):
            structure = Structure(
                {},
                vocabulary=tableau.structure.vocabulary,
            ).add_facts(subset)
            if not needed <= structure.domain:
                continue
            yield Tableau(structure, tableau.distinguished)


def gap_witness(
    lower: ConjunctiveQuery,
    upper: ConjunctiveQuery,
    config: ApproximationConfig = DEFAULT_CONFIG,
) -> ConjunctiveQuery | None:
    """A CQ strictly between ``lower ⊂ Q'' ⊂ upper``, or ``None``.

    Sound: any returned query verifiably sits strictly between.  The search
    covers homomorphic images of ``T_upper`` (one per isomorphism class, as
    betweenness is isomorphism-invariant) and fact-substructures of
    ``T_lower`` (see the module docstring for the completeness discussion).
    Requires ``lower ⊆ upper``; raises ``ValueError`` past
    ``config.exact_limit`` variables in ``upper``, and past 14 atoms in
    ``lower`` when no quotient of ``T_upper`` is a witness.
    """
    if not is_contained_in(lower, upper):
        raise ValueError("gap_witness expects lower ⊆ upper")
    upper_tab = upper.tableau()
    if len(upper_tab.structure.domain) > config.exact_limit:
        raise ValueError(
            f"upper query has {len(upper_tab.structure.domain)} variables; "
            f"gap checking is capped at exact_limit={config.exact_limit}"
        )
    lower_tab = lower.tableau()

    for witness in iter_quotient_tableaux(upper_tab):
        if _is_between(witness, lower_tab, upper_tab):
            return ConjunctiveQuery.from_tableau(witness, prefix="g")
    for witness in _fact_substructures(lower_tab):
        if _is_between(witness, lower_tab, upper_tab):
            return ConjunctiveQuery.from_tableau(witness, prefix="g")
    return None


def has_gap(
    lower: ConjunctiveQuery,
    upper: ConjunctiveQuery,
    config: ApproximationConfig = DEFAULT_CONFIG,
) -> bool:
    """Whether nothing lies strictly between ``lower`` and ``upper``."""
    return gap_witness(lower, upper, config) is None


def is_tight_approximation(
    query: ConjunctiveQuery,
    candidate: ConjunctiveQuery,
    cls: QueryClass,
    config: ApproximationConfig = DEFAULT_CONFIG,
) -> bool:
    """Tightness: a C-approximation with a gap up to ``query``."""
    if not is_approximation(query, candidate, cls, config):
        return False
    if not is_strictly_contained_in(candidate, query):
        return False
    return has_gap(candidate, query, config)


def tight_pair(n: int) -> tuple[ConjunctiveQuery, ConjunctiveQuery]:
    """The Proposition 5.6 pair ``(Q_n, Q'_n)``.

    ``Q_n`` has tableau ``G_{n+2}`` and ``Q'_n`` has tableau ``P_{n+3}``;
    for every ``n ≥ 1``, ``Q'_n`` is a tight acyclic approximation of
    ``Q_n``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    query = ConjunctiveQuery.from_tableau(Tableau(tight_g_k(n + 2)), prefix="q")
    path = directed_path(n + 3)
    approx = ConjunctiveQuery.from_tableau(Tableau(path.structure), prefix="p")
    return query, approx
