"""Directed graphs as relational structures.

A digraph is a structure over the vocabulary ``{"E": 2}`` (Section 2).  This
module provides constructors and the graph-theoretic predicates the paper
uses: loops, weak connectivity, oriented cycles, and the paper's notion of an
*acyclic digraph* — one whose underlying undirected graph has no cycles of
length ≥ 3 (loops and 2-cycles are acyclic in the query sense, because the
hypergraph of ``E(x,y), E(y,x)`` is a single hyperedge).

Pointed digraphs (with initial and terminal nodes) support the concatenation
calculus of the appendix: ``G · H`` identifies ``G``'s terminal with ``H``'s
initial node, and ``G⁻¹`` swaps the two roles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable

import networkx as nx

from repro.cq.structure import Structure

Element = Hashable

_COPY_COUNTER = itertools.count()


def digraph(edges: Iterable[tuple[Element, Element]], nodes: Iterable[Element] = ()) -> Structure:
    """A digraph structure from an edge list (plus optional isolated nodes)."""
    return Structure({"E": edges}, vocabulary={"E": 2}, domain=nodes)


def edges(g: Structure) -> frozenset[tuple[Element, Element]]:
    return g.tuples("E")


def nodes(g: Structure) -> frozenset[Element]:
    return g.domain


def add_edges(g: Structure, new_edges: Iterable[tuple[Element, Element]]) -> Structure:
    return g.add_facts(("E", edge) for edge in new_edges)


def has_loop(g: Structure) -> bool:
    return any(u == v for u, v in edges(g))


def merge_nodes(g: Structure, keep: Element, drop: Element) -> Structure:
    """Identify ``drop`` with ``keep`` (the gadget-building primitive)."""
    return g.rename({drop: keep})


def underlying_graph(g: Structure) -> nx.Graph:
    """The underlying undirected simple graph ``G^u`` (loops kept as loops)."""
    graph = nx.Graph()
    graph.add_nodes_from(nodes(g))
    graph.add_edges_from((u, v) for u, v in edges(g))
    return graph


def symmetric_closure(g: Structure) -> Structure:
    """Add the reverse of every edge (the digraph ``G↔`` of an undirected G)."""
    return add_edges(g, [(v, u) for u, v in edges(g)])


def weak_components(g: Structure) -> list[frozenset[Element]]:
    """Connected components of the underlying undirected graph."""
    return [frozenset(c) for c in nx.connected_components(underlying_graph(g))]


def is_weakly_connected(g: Structure) -> bool:
    return len(weak_components(g)) <= 1


def is_acyclic_digraph(g: Structure) -> bool:
    """The paper's acyclicity for digraphs/tableaux over graphs.

    True iff the digraph has no *oriented cycle of length ≥ 3* — equivalently
    (Section 5.1) iff the simple graph obtained from ``G^u`` by dropping loops
    and merging antiparallel pairs is a forest.  Loops and 2-cycles are
    allowed: their query hypergraphs are acyclic.
    """
    simple = nx.Graph()
    simple.add_nodes_from(nodes(g))
    simple.add_edges_from((u, v) for u, v in edges(g) if u != v)
    return nx.is_forest(simple) if simple.number_of_nodes() else True


def is_oriented_forest(g: Structure) -> bool:
    """True iff ``G^u`` is a forest in the strict sense: no loops, no 2-cycles.

    This is the class of *acyclic digraphs* used for targets in the digraph
    reformulations (Corollary 4.10), where ``T`` must have a forest shape.
    """
    if has_loop(g):
        return False
    seen = set()
    for u, v in edges(g):
        if (v, u) in seen:
            return False
        seen.add((u, v))
    simple = nx.Graph()
    simple.add_nodes_from(nodes(g))
    simple.add_edges_from((u, v) for u, v in edges(g))
    return nx.is_forest(simple) if simple.number_of_nodes() else True


def complete_digraph(m: int) -> Structure:
    """``K_m↔``: the complete digraph with edges in both directions."""
    if m < 1:
        raise ValueError("m must be positive")
    return digraph(
        [(i, j) for i in range(m) for j in range(m) if i != j], nodes=range(m)
    )


def single_loop() -> Structure:
    """``K1*``: one node with a loop — the trivial tableau over graphs."""
    return digraph([("o", "o")])


@dataclass(frozen=True)
class PointedDigraph:
    """A digraph with distinguished initial and terminal nodes."""

    structure: Structure
    initial: Element
    terminal: Element

    def __post_init__(self) -> None:
        if self.initial not in self.structure.domain:
            raise ValueError("initial node not in digraph")
        if self.terminal not in self.structure.domain:
            raise ValueError("terminal node not in digraph")

    def reversed(self) -> "PointedDigraph":
        """``G⁻¹``: same digraph with initial/terminal roles swapped."""
        return PointedDigraph(self.structure, self.terminal, self.initial)

    def fresh_copy(self, tag: str | None = None) -> "PointedDigraph":
        """A disjoint copy with globally fresh node names."""
        tag = tag if tag is not None else f"c{next(_COPY_COUNTER)}"
        mapping = {value: (tag, value) for value in self.structure.domain}
        return PointedDigraph(
            self.structure.rename(mapping),
            mapping[self.initial],
            mapping[self.terminal],
        )

    def concat(self, other: "PointedDigraph") -> "PointedDigraph":
        """``self · other``: identify self's terminal with other's initial.

        Both operands are copied apart first, so concatenation never
        accidentally shares nodes.
        """
        left = self.fresh_copy()
        right = other.fresh_copy()
        glued = right.structure.rename({right.initial: left.terminal})
        return PointedDigraph(
            left.structure.union(glued),
            left.initial,
            left.terminal if right.initial == right.terminal else right.terminal,
        )

    def __mul__(self, other: "PointedDigraph") -> "PointedDigraph":
        return self.concat(other)

