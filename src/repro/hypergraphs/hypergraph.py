"""Hypergraphs of conjunctive queries.

For a CQ ``Q``, the hypergraph ``H(Q)`` has the variables of ``Q`` as nodes
and the variable set of each atom as a hyperedge (Section 3).  The two
closure operations of Theorem 6.1 — *induced subhypergraphs* and *edge
extensions* — are provided here and exercised by the hypergraph-based
approximation algorithms.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import networkx as nx

Vertex = Hashable


class Hypergraph:
    """An immutable finite hypergraph."""

    __slots__ = ("_vertices", "_edges")

    def __init__(
        self,
        edges: Iterable[Iterable[Vertex]],
        vertices: Iterable[Vertex] = (),
    ) -> None:
        frozen = frozenset(frozenset(edge) for edge in edges)
        if any(not edge for edge in frozen):
            raise ValueError("empty hyperedges are not allowed")
        all_vertices = set(vertices)
        for edge in frozen:
            all_vertices |= edge
        self._edges = frozen
        self._vertices = frozenset(all_vertices)

    @property
    def vertices(self) -> frozenset[Vertex]:
        return self._vertices

    @property
    def edges(self) -> frozenset[frozenset[Vertex]]:
        return self._edges

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Hypergraph):
            return self._vertices == other._vertices and self._edges == other._edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        shown = ", ".join(
            "{" + ",".join(sorted(map(repr, edge))) + "}" for edge in self._edges
        )
        return f"Hypergraph(|V|={len(self._vertices)}, edges=[{shown}])"

    # ------------------------------------------------------------ operations

    def primal_graph(self) -> nx.Graph:
        """The primal (Gaifman) graph: clique per hyperedge, loops dropped."""
        graph = nx.Graph()
        graph.add_nodes_from(self._vertices)
        for edge in self._edges:
            members = sorted(edge, key=repr)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    graph.add_edge(u, v)
        return graph

    def induced(self, keep: Iterable[Vertex]) -> "Hypergraph":
        """The induced subhypergraph ``<V', {e ∩ V' | e ∈ E}>`` (Section 6).

        Hyperedges that become empty are dropped (a hyperedge disjoint from
        ``V'`` contributes nothing).
        """
        keep = frozenset(keep)
        return Hypergraph(
            (edge & keep for edge in self._edges if edge & keep),
            vertices=keep & self._vertices,
        )

    def extend_edge(
        self, edge: Iterable[Vertex], new_vertices: Iterable[Vertex]
    ) -> "Hypergraph":
        """Edge extension: add fresh nodes to one hyperedge (Section 6)."""
        edge = frozenset(edge)
        new_vertices = frozenset(new_vertices)
        if edge not in self._edges:
            raise ValueError(f"{set(edge)!r} is not a hyperedge")
        if new_vertices & self._vertices:
            raise ValueError("extension vertices must be disjoint from the hypergraph")
        remaining = self._edges - {edge}
        return Hypergraph(
            list(remaining) + [edge | new_vertices], vertices=self._vertices
        )

    def subhypergraph(self, edges: Iterable[Iterable[Vertex]]) -> "Hypergraph":
        """A (non-induced) subhypergraph from a subset of the hyperedges."""
        chosen = frozenset(frozenset(e) for e in edges)
        if not chosen <= self._edges:
            raise ValueError("edges must be hyperedges of this hypergraph")
        return Hypergraph(chosen)


def hypergraph_of_query(query) -> Hypergraph:
    """``H(Q)`` for a :class:`~repro.cq.query.ConjunctiveQuery`."""
    return Hypergraph(query.hyperedges(), vertices=query.variables)


def hypergraph_of_structure(structure) -> Hypergraph:
    """The hypergraph of a structure viewed as a tableau."""
    return Hypergraph(
        (set(row) for _, row in structure.facts()), vertices=structure.domain
    )


def _vertex_masks(hypergraph: Hypergraph) -> tuple[list[Vertex], list[int]]:
    """The vertices in ``repr`` order (vertex ``i`` is bit ``i``) and one
    mask per hyperedge."""
    vertices = sorted(hypergraph.vertices, key=repr)
    bit = {vertex: 1 << i for i, vertex in enumerate(vertices)}
    return vertices, [sum(bit[vertex] for vertex in edge) for edge in hypergraph.edges]
