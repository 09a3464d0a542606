"""Builders for frequently used queries.

Includes the trivial queries of the paper: ``Q_trivial`` (all relations
looped on one variable, contained in every CQ; Section 4.1), the trivial
bipartite query ``Q_triv2`` with tableau ``K2↔``, and its generalization
``Q_triv(k+1)`` with tableau ``K(k+1)↔`` (Section 5.2).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.cq.query import Atom, ConjunctiveQuery
from repro.cq.vocabulary import Vocabulary


def trivial_query(vocabulary: Vocabulary | Mapping[str, int]) -> ConjunctiveQuery:
    """``Q_trivial``: one variable ``x`` with every atom ``R(x, ..., x)``.

    Its tableau maps homomorphically from every tableau via the constant map,
    so ``Q_trivial`` is contained in every Boolean CQ over the vocabulary.
    """
    vocabulary = Vocabulary(vocabulary)
    if not len(vocabulary):
        raise ValueError("the vocabulary is empty")
    atoms = [Atom(name, ("x",) * arity) for name, arity in vocabulary.items()]
    return ConjunctiveQuery((), atoms)


def trivial_bipartite_query() -> ConjunctiveQuery:
    """``Q_triv2() :- E(x, y), E(y, x)`` with tableau ``K2↔`` (Section 5.1)."""
    return trivial_clique_query(2)


def trivial_clique_query(size: int) -> ConjunctiveQuery:
    """``Q_triv(size)``: the Boolean query whose tableau is ``K(size)↔``."""
    if size < 2:
        raise ValueError("the clique query needs at least two variables")
    variables = [f"x{i}" for i in range(size)]
    atoms = [
        Atom("E", (u, v)) for u in variables for v in variables if u != v
    ]
    return ConjunctiveQuery((), atoms)


def path_query(length: int, *, head: Sequence[str] = ()) -> ConjunctiveQuery:
    """``P_length``: the query stating that ``x0, ..., x_length`` form a path.

    The body is ``E(x0, x1), ..., E(x_{length-1}, x_length)``; by default the
    query is Boolean, and ``head`` selects free variables.
    """
    if length < 1:
        raise ValueError("paths must have at least one edge")
    atoms = [Atom("E", (f"x{i}", f"x{i + 1}")) for i in range(length)]
    return ConjunctiveQuery(tuple(head), atoms)


def loop_query() -> ConjunctiveQuery:
    """``Q() :- E(x, x)``, the trivial acyclic approximation over graphs."""
    return ConjunctiveQuery((), [Atom("E", ("x", "x"))])
