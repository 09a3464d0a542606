"""Tree decompositions of hypergraphs (Section 3).

A tree decomposition of ``H = <V, E>`` is a tree ``T`` with a map
``f : T → 2^V`` such that every hyperedge is contained in some ``f(u)`` and
the occurrences of every vertex form a connected subtree.  The width is
``max |f(u)| - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

import networkx as nx

from repro.hypergraphs.hypergraph import Hypergraph

Vertex = Hashable


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree decomposition: a tree plus one bag per tree node."""

    tree: nx.Graph
    bags: Mapping[Hashable, frozenset[Vertex]] = field(default_factory=dict)

    @property
    def width(self) -> int:
        """``max |bag| - 1`` (width -1 for the empty decomposition)."""
        return max((len(bag) for bag in self.bags.values()), default=0) - 1

    def validate(self, hypergraph: Hypergraph) -> list[str]:
        """All violations of the tree-decomposition conditions (empty = valid)."""
        problems: list[str] = []

        if set(self.tree.nodes) != set(self.bags):
            problems.append("tree nodes and bag keys differ")
            return problems
        if self.tree.number_of_nodes() and not nx.is_tree(self.tree):
            problems.append("the decomposition graph is not a tree")
            return problems

        for edge in hypergraph.edges:
            if not any(edge <= bag for bag in self.bags.values()):
                problems.append(f"hyperedge {set(edge)!r} is in no bag")

        for vertex in hypergraph.vertices:
            holders = [node for node, bag in self.bags.items() if vertex in bag]
            if not holders:
                problems.append(f"vertex {vertex!r} is in no bag")
                continue
            subtree = self.tree.subgraph(holders)
            if not nx.is_connected(subtree):
                problems.append(f"occurrences of vertex {vertex!r} are disconnected")
        return problems

    def is_valid(self, hypergraph: Hypergraph) -> bool:
        return not self.validate(hypergraph)


@dataclass(frozen=True)
class HypertreeDecomposition:
    """A (generalized) hypertree decomposition ``<T, χ, λ>`` (Section 6).

    ``chi`` maps tree nodes to vertex bags and ``guards`` maps tree nodes to
    sets of hyperedges covering the bags.  With ``special_condition=True``
    :meth:`validate` checks the genuine hypertree condition
    ``⋃λ(u) ∩ ⋃{χ(t) | t ∈ T_u} ⊆ χ(u)``.
    """

    tree: nx.DiGraph  # rooted: edges point from parent to child
    chi: Mapping[Hashable, frozenset[Vertex]]
    guards: Mapping[Hashable, frozenset[frozenset[Vertex]]]

    @property
    def width(self) -> int:
        """``max |λ(u)|`` over the decomposition nodes."""
        return max((len(g) for g in self.guards.values()), default=0)

    def root(self) -> Hashable:
        roots = [n for n in self.tree.nodes if self.tree.in_degree(n) == 0]
        if len(roots) != 1:
            raise ValueError(f"expected a unique root, found {len(roots)}")
        return roots[0]

    def _subtree_vertices(self) -> dict[Hashable, frozenset[Vertex]]:
        """Vertices of ``χ`` over each subtree (computed bottom-up)."""
        covered: dict[Hashable, frozenset[Vertex]] = {}
        for node in nx.dfs_postorder_nodes(self.tree, source=self.root()):
            acc = set(self.chi[node])
            for child in self.tree.successors(node):
                acc |= covered[child]
            covered[node] = frozenset(acc)
        return covered

    def validate(
        self, hypergraph: Hypergraph, *, special_condition: bool = True
    ) -> list[str]:
        """Violations of the (generalized) hypertree conditions.

        Gottlob–Leone–Scarcello take ``V(H) = ⋃E(H)``: no guard can cover a
        vertex in no hyperedge, so only vertices of some hyperedge need a
        bag.
        """
        problems: list[str] = []
        undirected = self.tree.to_undirected()
        base = TreeDecomposition(undirected, self.chi)
        problems.extend(base.validate(Hypergraph(hypergraph.edges)))

        for node, guard in self.guards.items():
            if not guard <= hypergraph.edges:
                problems.append(f"guard of node {node!r} uses non-hyperedges")
                continue
            union = frozenset().union(*guard) if guard else frozenset()
            if not self.chi[node] <= union:
                problems.append(f"bag of node {node!r} is not covered by its guard")

        if special_condition and self.tree.number_of_nodes():
            covered = self._subtree_vertices()
            for node, guard in self.guards.items():
                union = frozenset().union(*guard) if guard else frozenset()
                if not union & covered[node] <= self.chi[node]:
                    problems.append(
                        f"special condition fails at node {node!r}"
                    )
        return problems

    def is_valid(self, hypergraph: Hypergraph, *, special_condition: bool = True) -> bool:
        return not self.validate(hypergraph, special_condition=special_condition)
