"""Conjunctive queries, relational structures and tableaux."""

from repro.cq.vocabulary import GRAPH_VOCABULARY, Vocabulary
from repro.cq.structure import Structure
from repro.cq.tableau import Tableau, pin_for
from repro.cq.query import Atom, ConjunctiveQuery
from repro.cq.parser import CQParseError, parse_query
from repro.cq.containment import (
    are_equivalent,
    containment_witness,
    is_contained_in,
    is_strictly_contained_in,
)
from repro.cq.minimize import is_minimal, minimize
from repro.cq.builders import (
    loop_query,
    path_query,
    trivial_bipartite_query,
    trivial_clique_query,
    trivial_query,
)

__all__ = [
    "Atom",
    "CQParseError",
    "ConjunctiveQuery",
    "GRAPH_VOCABULARY",
    "Structure",
    "Tableau",
    "Vocabulary",
    "are_equivalent",
    "containment_witness",
    "is_contained_in",
    "is_minimal",
    "is_strictly_contained_in",
    "loop_query",
    "minimize",
    "parse_query",
    "path_query",
    "pin_for",
    "trivial_bipartite_query",
    "trivial_clique_query",
    "trivial_query",
]
