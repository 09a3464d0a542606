"""Balanced digraphs, levels and heights (Hell & Nešetřil, via Prop 4.4).

A digraph is *balanced* when every oriented cycle has net length 0.
Equivalently, a consistent potential exists: a function ``pot`` with
``pot(v) = pot(u) + 1`` for every edge ``(u, v)``.  For a balanced digraph
the paper defines the *level* of ``v`` as the maximum net length of an
oriented path ending in ``v`` and the *height* ``hg(G)`` as the maximum
level.

Lemma 4.5: a homomorphism between balanced digraphs of the same height
preserves levels.  More generally (and what we implement as a candidate
filter for the search engine): homomorphisms shift the levels of each weak
component upward by a constant ``c`` with
``0 ≤ c ≤ hg(H) - hg(component)``.  Claim 5.2: if ``G → H`` and ``H`` is
balanced, so is ``G`` — hence no homomorphism exists from an unbalanced
digraph into a balanced one.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.cq.structure import Structure
from repro.graphs.digraph import edges, nodes, weak_components

Element = Hashable


def potentials(g: Structure) -> dict[Element, int] | None:
    """A consistent potential (edge = +1), or ``None`` if ``g`` is unbalanced.

    Computed by BFS over the underlying undirected graph, one weak component
    at a time; a conflict exhibits an unbalanced oriented cycle.
    """
    adjacency: dict[Element, list[tuple[Element, int]]] = {v: [] for v in nodes(g)}
    for u, v in edges(g):
        adjacency[u].append((v, +1))
        adjacency[v].append((u, -1))

    pot: dict[Element, int] = {}
    for start in sorted(nodes(g), key=repr):
        if start in pot:
            continue
        pot[start] = 0
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor, delta in adjacency[current]:
                expected = pot[current] + delta
                if neighbor not in pot:
                    pot[neighbor] = expected
                    frontier.append(neighbor)
                elif pot[neighbor] != expected:
                    return None
    return pot


def is_balanced(g: Structure) -> bool:
    """Whether every oriented cycle of ``g`` has net length zero."""
    return potentials(g) is not None


def levels(g: Structure) -> dict[Element, int] | None:
    """The paper's levels: potentials normalized to minimum 0 per component.

    Within one weak component any two nodes are joined by an oriented path,
    so the maximum net length of a path ending at ``v`` is
    ``pot(v) - min(pot over the component)``.
    """
    pot = potentials(g)
    if pot is None:
        return None
    result: dict[Element, int] = {}
    for component in weak_components(g):
        base = min(pot[v] for v in component)
        for v in component:
            result[v] = pot[v] - base
    return result


def height(g: Structure) -> int | None:
    """``hg(G)``: the maximum level, or ``None`` for unbalanced digraphs."""
    lvl = levels(g)
    if lvl is None:
        return None
    return max(lvl.values(), default=0)


def component_heights(g: Structure) -> dict[Element, int] | None:
    """Map each node to the height of its weak component."""
    lvl = levels(g)
    if lvl is None:
        return None
    result: dict[Element, int] = {}
    for component in weak_components(g):
        h = max(lvl[v] for v in component)
        for v in component:
            result[v] = h
    return result


def level_candidates(
    source: Structure, target: Structure
) -> dict[Element, set[Element]] | None:
    """Sound candidate sets for homomorphisms between balanced digraphs.

    Implements the level-shift consequence of Lemma 4.5: for ``v`` in a
    source component of height ``h``, any homomorphism satisfies
    ``level(h(v)) = level(v) + c`` with ``0 ≤ c ≤ hg(target) - h``.
    Returns ``None`` when either digraph is unbalanced (no filter).
    """
    source_levels = levels(source)
    target_levels = levels(target)
    if source_levels is None or target_levels is None:
        return None
    target_height = max(target_levels.values(), default=0)
    comp_heights = component_heights(source)
    assert comp_heights is not None

    by_level: dict[int, set[Element]] = {}
    for node, lvl in target_levels.items():
        by_level.setdefault(lvl, set()).add(node)

    candidates: dict[Element, set[Element]] = {}
    for node, lvl in source_levels.items():
        slack = target_height - comp_heights[node]
        allowed: set[Element] = set()
        for shift in range(max(slack, -1) + 1):
            allowed |= by_level.get(lvl + shift, set())
        candidates[node] = allowed
    return candidates


def digraph_homomorphism(
    source: Structure,
    target: Structure,
    *,
    pin: Mapping[Element, Element] | None = None,
    use_level_filter: bool = True,
) -> dict[Element, Element] | None:
    """A digraph homomorphism, using balancedness to prune the search.

    Fast paths: an unbalanced digraph never maps into a balanced one
    (Claim 5.2), and between balanced digraphs the level filter restricts
    candidates before the backtracking search runs.
    """
    from repro.homomorphism.search import find_homomorphism

    candidates = None
    if use_level_filter:
        if is_balanced(target) and not is_balanced(source):
            return None
        candidates = level_candidates(source, target)
    return find_homomorphism(source, target, pin=pin, candidates=candidates)


def digraph_hom_exists(
    source: Structure,
    target: Structure,
    *,
    pin: Mapping[Element, Element] | None = None,
    use_level_filter: bool = True,
) -> bool:
    return (
        digraph_homomorphism(
            source, target, pin=pin, use_level_filter=use_level_filter
        )
        is not None
    )
