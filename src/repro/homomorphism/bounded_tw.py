"""Homomorphisms from bounded-treewidth sources in polynomial time.

The paper's DP-membership argument needs "since both T_Q'' and T_Q' have
treewidth at most k, checking T_Q' → T_Q'' can be done in polynomial time."
By Chandra–Merlin, ``A → B`` iff the Boolean CQ of ``A`` (a variable per
element, an atom per fact) is true on ``B``, so the one algorithm here is
:func:`~repro.evaluation.treewidth_eval.treewidth_evaluate`, whose variable
elimination keeps every intermediate within ``|B|^(k+1)`` rows.  A witness
comes by self-reduction: in ``repr`` order, each element's images are the
answer of the CQ with that element as its one head variable, and the least
(by ``repr``) is pinned before the next — ``n`` evaluations in all.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.cq.query import ConjunctiveQuery
from repro.cq.structure import Structure
from repro.evaluation.treewidth_eval import treewidth_evaluate

Element = Hashable
Assignment = dict[Element, Element]
Pin = Mapping[Element, Element] | None


def _answers(source: Structure, target: Structure, pin: Mapping, head=(), k=None):
    """The answer on ``target`` of the CQ of ``source`` with head ``head``.

    A pinned element, and one in no fact, gets a unary atom over a fresh
    relation added to the target: its image, or the target's domain.
    """
    if not source.domain.issuperset(pin):
        raise ValueError(f"pinned elements {set(pin) - source.domain!r} not in source")
    arity = target.vocabulary
    if any(len(row) != arity.get(rel, len(row)) for rel, row in source.facts()):
        return frozenset()  # no target row has the arity of this fact
    name = {e: f"x{i}" for i, e in enumerate(sorted(source.domain, key=repr))}
    atoms = [(rel, tuple(name[e] for e in row)) for rel, row in source.facts()]
    # Longer than every relation name, so no filter's name is taken.
    stem = "_" * max(map(len, [*source.relations, *target.relations, ""])) + "_"
    in_facts = {e for _, row in source.facts() for e in row}
    allowed = {e: target.domain for e in name if e not in in_facts}
    allowed.update((e, target.domain & {image}) for e, image in pin.items())
    atoms += [(stem + name[e], (name[e],)) for e in allowed]
    filters = [(stem + name[e], (v,)) for e, values in allowed.items() for v in values]
    query = ConjunctiveQuery([name[e] for e in head], atoms)
    return treewidth_evaluate(query, target.add_facts(filters), k)


def bounded_treewidth_homomorphism(
    source: Structure, target: Structure, *, pin: Pin = None, k: int | None = None
) -> Assignment | None:
    """A homomorphism ``source → target`` extending ``pin``, or ``None``.

    ``k`` bounds the source's treewidth (its exact treewidth when ``None``);
    a wider source raises ``ValueError``.
    """
    chosen: Assignment = {}
    for element in sorted(source.domain, key=repr):
        images = _answers(source, target, {**(pin or {}), **chosen}, (element,), k)
        if not images:
            return None
        chosen[element] = min((image for (image,) in images), key=repr)
    return chosen


def bounded_tw_hom_exists(
    source: Structure, target: Structure, *, pin: Pin = None, k: int | None = None
) -> bool:
    """Whether ``source → target`` holds extending ``pin``."""
    return not source.domain or bool(_answers(source, target, pin or {}, k=k))


def containment_via_treewidth(sub: ConjunctiveQuery, sup: ConjunctiveQuery) -> bool:
    """``sub ⊆ sup`` iff sub's head tuple is an answer of ``sup`` on ``T_sub``:
    polynomial when ``sup`` has small treewidth, correct at any treewidth."""
    from repro.cq.containment import _check_arities  # a module-level import cycles

    _check_arities(sub, sup)
    return sub.head in treewidth_evaluate(sup, sub.tableau().structure)
