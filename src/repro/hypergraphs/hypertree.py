"""Hypertree width (Gottlob, Leone, Scarcello) — Section 6 of the paper.

A hypertree decomposition is a tree decomposition ``<T, f>`` plus a guard
map ``c : T → 2^E`` with ``f(u) ⊆ ⋃c(u)``, subject to the *special
condition* ``⋃c(u) ∩ ⋃{f(t) | t ∈ T_u} ⊆ f(u)``.  Its width is
``max |c(u)|``; hypertree width 1 coincides with acyclicity, and CQs of
bounded hypertree width have polynomial combined complexity.

Width 1 is decided by the GYO reduction: hypertree width 1 and generalized
hypertree width 1 are both α-acyclicity (Gottlob, Leone, Scarcello), so
:func:`edge_masks_width_at_most` hands ``k = 1`` to
:func:`repro.hypergraphs.gyo.edge_masks_acyclic`.  For ``k ≥ 2``, and for
every decomposition that is built, :class:`_WidthSolver` is the one
decision kernel for both hypertree width and generalized hypertree width
(:mod:`repro.hypergraphs.ghw`).  It runs the
det-k-decomp recursion (Gottlob & Samer) over int bitmasks: a vertex is a
bit, a hyperedge an int, and a state a pair ``(component edges, connector)``
of masks.  Each state guesses a guard of at most ``k`` hyperedges, from
covers precomputed once per solver.  For hypertree width the bag is fixed
to the maximal choice ``χ = ⋃λ ∩ (V(component) ∪ connector)`` (the
Gottlob–Leone–Scarcello normal form, which also enforces the special
condition); for generalized hypertree width every bag between the connector
and that maximal bag is tried, by a submask walk downwards.  The bag's
[χ]-components come from a mask flood fill, and states are memoized, so
the hypertree search is polynomial for fixed ``k`` up to the number of
components.

:func:`edge_masks_width_at_most` answers straight from masks (the
pipeline's integer candidates use it, so no :class:`Hypergraph` is built
per check); the ``*_at_most`` functions answer without building a tree;
:func:`hypertree_decomposition` maps the solver's recorded choices back to
vertices.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable

import networkx as nx

from repro.hypergraphs.gyo import edge_masks_acyclic
from repro.hypergraphs.hypergraph import Hypergraph, _vertex_masks
from repro.hypergraphs.treedecomp import HypertreeDecomposition

Vertex = Hashable


def _bits(mask: int) -> Iterable[int]:
    """The indexes of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _WidthSolver:
    """Decides ``htw ≤ k`` (``general=False``) or ``ghw ≤ k`` on edge masks."""

    def __init__(self, edge_masks: Iterable[int], k: int, general: bool) -> None:
        self.edges = sorted({mask for mask in edge_masks if mask})
        self.general = general
        self.everything = (1 << len(self.edges)) - 1
        covers: dict[int, tuple[int, ...]] = {}
        for size in range(1, k + 1):
            for guard in itertools.combinations(range(len(self.edges)), size):
                cover = 0
                for index in guard:
                    cover |= self.edges[index]
                covers.setdefault(cover, guard)
        self.guards = list(covers.items())
        self.memo: dict[tuple[int, int], bool] = {}
        self.choice: dict[tuple[int, int], tuple] = {}

    def _split(self, members: list[tuple[int, int]], bag: int) -> list[tuple[int, int]]:
        """The [bag]-components of a component's ``(edge bit, edge mask)``
        members, each with its connector.

        Two edges are connected when they share a vertex outside ``bag``;
        edges inside the bag are covered and drop out.
        """
        outside = ~bag
        rest = [member for member in members if member[1] & outside]
        children = []
        while rest:
            group, span = rest.pop()
            grew = True
            while grew:
                grew = False
                keep = []
                for bit, edge in rest:
                    if edge & span & outside:
                        group |= bit
                        span |= edge
                        grew = True
                    else:
                        keep.append((bit, edge))
                rest = keep
            children.append((group, span & bag))
        return children

    def decide(self, component: int, connector: int) -> bool:
        state = (component, connector)
        cached = self.memo.get(state)
        if cached is not None:
            return cached
        members = [(1 << i, self.edges[i]) for i in _bits(component)]
        scope = connector
        for _, edge in members:
            scope |= edge
        tried: set[int] = set()
        result = False
        for cover, guard in self.guards:
            if connector & ~cover:
                continue
            top = cover & scope
            # Hypertree width fixes the bag to ``top``; GHW also tries
            # every bag between the connector and ``top``.
            base = connector if self.general else top
            optional = top & ~base
            sub = optional
            while True:
                bag = base | sub
                if bag and bag not in tried:
                    tried.add(bag)
                    children = self._split(members, bag)
                    # Progress: every child must be a strictly smaller edge set.
                    if all(child != component for child, _ in children) and all(
                        self.decide(*child) for child in children
                    ):
                        self.choice[state] = (guard, bag, children)
                        result = True
                        break
                if not sub:
                    break
                sub = (sub - 1) & optional
            if result:
                break
        self.memo[state] = result
        return result

    def holds(self) -> bool:
        return not self.edges or self.decide(self.everything, 0)

    def decomposition(self, vertices: list[Vertex]) -> HypertreeDecomposition | None:
        """The recorded choices as a tree over ``vertices`` (bit ``i`` is
        ``vertices[i]``), or ``None`` when the width bound fails."""
        tree = nx.DiGraph()
        if not self.edges:
            tree.add_node("root")
            return HypertreeDecomposition(tree, {"root": frozenset()}, {"root": frozenset()})
        if not self.holds():
            return None

        def vertex_set(mask: int) -> frozenset[Vertex]:
            return frozenset(vertices[i] for i in _bits(mask))

        chi: dict[Hashable, frozenset[Vertex]] = {}
        guards: dict[Hashable, frozenset[frozenset[Vertex]]] = {}
        pending: list[tuple[tuple[int, int], int | None]] = [((self.everything, 0), None)]
        while pending:
            state, parent = pending.pop()
            guard, bag, children = self.choice[state]
            node = len(chi)
            tree.add_node(node)
            if parent is not None:
                tree.add_edge(parent, node)
            chi[node] = vertex_set(bag)
            guards[node] = frozenset(vertex_set(self.edges[i]) for i in guard)
            pending.extend((child, node) for child in children)
        return HypertreeDecomposition(tree, chi, guards)


def edge_masks_width_at_most(
    edge_masks: Iterable[int], k: int, *, general: bool = False
) -> bool:
    """Whether the hypergraph whose edges are ``edge_masks`` (vertex ``i``
    is bit ``i``) has hypertree width — generalized if ``general`` — ≤ k.

    Width 1, of either kind, is α-acyclicity (Gottlob, Leone, Scarcello),
    so ``k = 1`` is decided by the GYO reduction
    (:func:`~repro.hypergraphs.gyo.edge_masks_acyclic`) instead of the
    decomposition search."""
    if k == 1:
        return edge_masks_acyclic(edge_masks)
    return k >= 1 and _WidthSolver(edge_masks, k, general).holds()


def hypertree_decomposition(
    hypergraph: Hypergraph, k: int
) -> HypertreeDecomposition | None:
    """A hypertree decomposition of width ≤ k, or ``None`` if none exists."""
    if k < 1:
        return None
    vertices, masks = _vertex_masks(hypergraph)
    return _WidthSolver(masks, k, general=False).decomposition(vertices)


def hypertree_width_at_most(hypergraph: Hypergraph, k: int) -> bool:
    """Whether ``htw(H) ≤ k`` (no decomposition tree is built)."""
    return edge_masks_width_at_most(_vertex_masks(hypergraph)[1], k)


def hypertree_width(hypergraph: Hypergraph, *, max_k: int | None = None) -> int:
    """The exact hypertree width (searched from 1 upward)."""
    bound = max_k if max_k is not None else max(len(hypergraph.edges), 1)
    for k in range(1, bound + 1):
        if hypertree_width_at_most(hypergraph, k):
            return k
    raise ValueError(f"hypertree width exceeds {bound}")


def query_hypertree_width_at_most(query, k: int) -> bool:
    """Membership test for the class HTW(k) of Section 6."""
    from repro.hypergraphs.hypergraph import hypergraph_of_query

    return hypertree_width_at_most(hypergraph_of_query(query), k)
