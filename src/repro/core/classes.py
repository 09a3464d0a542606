"""The tractable query classes C in which the paper approximates.

Graph-based classes (Section 4) restrict the graph ``G(Q)``; the canonical
family is TW(k), treewidth at most ``k`` — by Grohe–Schwentick–Segoufin this
captures graph-based tractability.  Hypergraph-based classes (Section 6)
restrict ``H(Q)``: acyclicity (= HTW(1)), bounded hypertree width, bounded
generalized hypertree width.

Each class object provides a membership test on tableaux/structures and
records the closure properties the existence theorems rely on
(Theorem 4.1: closure under subgraphs; Theorem 6.1: closure under induced
subhypergraphs and edge extensions).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import networkx as nx

from repro.cq.query import ConjunctiveQuery
from repro.cq.structure import Structure
from repro.cq.tableau import Tableau
from repro.hypergraphs.ghw import generalized_hypertree_width_at_most
from repro.hypergraphs.gyo import edge_masks_acyclic, is_acyclic
from repro.hypergraphs.hypergraph import hypergraph_of_structure
from repro.hypergraphs.hypertree import (
    edge_masks_width_at_most,
    hypertree_width_at_most,
)
from repro.hypergraphs.treewidth import (
    adjacency_treewidth_at_most,
    treewidth_at_most,
)


def primal_graph_of_structure(structure: Structure) -> nx.Graph:
    """``G(Q)`` computed on a tableau: cliques over each fact's elements."""
    graph = nx.Graph()
    graph.add_nodes_from(structure.domain)
    for _, row in structure.facts():
        distinct = sorted(set(row), key=repr)
        for i, u in enumerate(distinct):
            for v in distinct[i + 1 :]:
                graph.add_edge(u, v)
    return graph


class QueryClass(ABC):
    """A class of CQs defined by a condition on tableaux."""

    #: "graph" or "hypergraph" — which existence theorem applies.
    kind: str
    name: str

    @abstractmethod
    def contains_structure(self, structure: Structure) -> bool:
        """Membership test on a tableau structure."""

    def contains_tableau(self, tableau: Tableau) -> bool:
        return self.contains_structure(tableau.structure)

    def contains_query(self, query: ConjunctiveQuery) -> bool:
        return self.contains_structure(query.tableau().structure)

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QueryClass):
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)


class TreewidthClass(QueryClass):
    """TW(k): queries whose graph has treewidth at most ``k`` (Section 4).

    Closed under subgraphs, which is what Theorem 4.1 needs: every
    homomorphic image of a tableau found by the search is compared against
    this membership test directly.
    """

    kind = "graph"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("treewidth bound must be at least 1")
        self.k = k
        self.name = f"TW({k})"

    def contains_structure(self, structure: Structure) -> bool:
        return treewidth_at_most(primal_graph_of_structure(structure), self.k)

    def contains_adjacency(self, adjacency) -> bool:
        """Membership on ``G(Q)`` given as loop-free neighbor bitmasks
        (vertex ``i`` is bit ``i``).

        Graph-based classes are determined by ``G(Q)`` alone, so the
        pipeline checks its integer-indexed candidates this way without
        building a structure or a graph.
        """
        return adjacency_treewidth_at_most(adjacency, self.k)


class AcyclicClass(QueryClass):
    """AC: acyclic queries (Yannakakis' class; = HTW(1), Section 6)."""

    kind = "hypergraph"
    name = "AC"

    def __init__(self) -> None:
        pass

    def contains_structure(self, structure: Structure) -> bool:
        return is_acyclic(hypergraph_of_structure(structure))

    def contains_edge_masks(self, edge_masks) -> bool:
        """Membership on ``H(Q)`` given as one bitmask per hyperedge
        (vertex ``i`` is bit ``i``), by the GYO reduction."""
        return edge_masks_acyclic(edge_masks)


class HypertreeClass(QueryClass):
    """HTW(k): hypertree width at most ``k`` (Section 6)."""

    kind = "hypergraph"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("hypertree width bound must be at least 1")
        self.k = k
        self.name = f"HTW({k})"

    def contains_structure(self, structure: Structure) -> bool:
        return hypertree_width_at_most(hypergraph_of_structure(structure), self.k)

    def contains_edge_masks(self, edge_masks) -> bool:
        """Membership on ``H(Q)`` given as one bitmask per hyperedge (vertex
        ``i`` is bit ``i``; hypergraph classes are determined by it alone)."""
        return edge_masks_width_at_most(edge_masks, self.k)


class GeneralizedHypertreeClass(QueryClass):
    """GHTW(k): generalized hypertree width at most ``k`` (Section 6)."""

    kind = "hypergraph"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("generalized hypertree width bound must be at least 1")
        self.k = k
        self.name = f"GHTW({k})"

    def contains_structure(self, structure: Structure) -> bool:
        return generalized_hypertree_width_at_most(
            hypergraph_of_structure(structure), self.k
        )

    def contains_edge_masks(self, edge_masks) -> bool:
        """Membership on ``H(Q)`` given as one bitmask per hyperedge."""
        return edge_masks_width_at_most(edge_masks, self.k, general=True)


def class_from_name(name: str) -> QueryClass:
    """The class a compact spec string names: ``TW<k>``, ``AC``, ``HTW<k>``,
    ``GHTW<k>`` (case-insensitive; the display forms ``TW(k)`` etc. are
    accepted too).

    This is the one parser behind every string-typed class surface — the
    CLI's ``--cls`` flags and the serving protocol's ``"cls"`` field — so
    they cannot drift apart.  Raises ``ValueError`` on an unknown spec.
    """
    spec = name.strip().upper().replace("(", "").replace(")", "")
    if spec == "AC":
        return AcyclicClass()
    for prefix, factory in (
        ("GHTW", GeneralizedHypertreeClass),
        ("HTW", HypertreeClass),
        ("TW", TreewidthClass),
    ):
        if spec.startswith(prefix) and spec[len(prefix):].isdigit():
            return factory(int(spec[len(prefix):]))
    raise ValueError(
        f"unknown class {name!r} (use TW<k>, AC, HTW<k> or GHTW<k>)"
    )


#: Convenience singletons for the most used classes.
TW1 = TreewidthClass(1)
TW2 = TreewidthClass(2)
AC = AcyclicClass()
HTW1 = HypertreeClass(1)
HTW2 = HypertreeClass(2)
GHTW1 = GeneralizedHypertreeClass(1)
