"""GYO reduction: hypergraph acyclicity and join trees.

A hypergraph is acyclic iff the Graham/Yu–Özsoyoğlu reduction succeeds:
repeatedly (1) delete vertices occurring in a single hyperedge and (2) delete
hyperedges contained in other hyperedges.  Acyclicity is equivalent to the
existence of a tree decomposition whose bags are exactly hyperedges
(Section 3) and to hypertree width 1 (Section 6); Yannakakis' algorithm
evaluates acyclic CQs along the join tree the reduction produces.

:func:`edge_masks_acyclic` runs the reduction on int bitmasks (a vertex is
a bit, a hyperedge an int).  It is the one acyclicity decision of the
library: :func:`is_acyclic` answers through it, and so does every width-1
check — hypertree width 1 and generalized hypertree width 1 are both
acyclicity (:func:`repro.hypergraphs.hypertree.edge_masks_width_at_most`).
:func:`gyo_join_tree` runs the same reduction on labelled vertex sets for
the callers that need the join tree itself.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import networkx as nx

from repro.hypergraphs.hypergraph import Hypergraph, _vertex_masks

Vertex = Hashable


def gyo_join_tree(
    labelled_edges: Sequence[tuple[Hashable, frozenset[Vertex]]],
) -> nx.Graph | None:
    """Run GYO on labelled hyperedges; return a join tree or ``None``.

    ``labelled_edges`` may contain duplicate vertex sets under different
    labels (multiple atoms over the same variables).  The returned tree has
    the labels as nodes and satisfies the join-tree (connectedness) property;
    ``None`` means the hypergraph is cyclic.
    """
    if not labelled_edges:
        return nx.Graph()

    current: dict[Hashable, set[Vertex]] = {
        label: set(edge) for label, edge in labelled_edges
    }
    tree = nx.Graph()
    tree.add_nodes_from(current)

    def occurrences() -> dict[Vertex, list[Hashable]]:
        where: dict[Vertex, list[Hashable]] = {}
        for label, edge in current.items():
            for vertex in edge:
                where.setdefault(vertex, []).append(label)
        return where

    changed = True
    while changed and len(current) > 1:
        changed = False

        # Rule 1: drop vertices that occur in exactly one hyperedge.
        for vertex, labels in occurrences().items():
            if len(labels) == 1:
                current[labels[0]].discard(vertex)
                changed = True

        # Rule 2: absorb a hyperedge contained in another one.
        labels = sorted(current, key=repr)
        absorbed = None
        for small in labels:
            for big in labels:
                if small != big and current[small] <= current[big]:
                    absorbed = (small, big)
                    break
            if absorbed:
                break
        if absorbed:
            small, big = absorbed
            tree.add_edge(small, big)
            del current[small]
            changed = True

    if len(current) > 1:
        return None
    return tree


def edge_masks_acyclic(edge_masks: Iterable[int]) -> bool:
    """Whether the hypergraph whose edges are ``edge_masks`` (vertex ``i``
    is bit ``i``) is (α-)acyclic.

    Each round applies both GYO rules to every edge at once: clear the
    bits that occur in a single edge, then drop empty edges and edges
    strictly inside another (the set merges duplicates).  The reduction is
    confluent, so removing all such edges together decides the same as one
    at a time; the hypergraph is acyclic iff nothing is left.
    """
    edges = set(edge_masks)
    while edges:
        seen = shared = 0
        for edge in edges:
            shared |= seen & edge
            seen |= edge
        stripped = {edge & shared for edge in edges}
        stripped.discard(0)
        reduced = {
            edge
            for edge in stripped
            if not any(edge != other and edge & other == edge for other in stripped)
        }
        if reduced == edges:
            return False
        edges = reduced
    return True


def is_acyclic(hypergraph: Hypergraph) -> bool:
    """Whether the hypergraph is (α-)acyclic."""
    return edge_masks_acyclic(_vertex_masks(hypergraph)[1])


def join_tree(hypergraph: Hypergraph) -> nx.Graph | None:
    """A join tree over the hyperedges, or ``None`` for cyclic hypergraphs."""
    labelled = [(edge, edge) for edge in hypergraph.edges]
    return gyo_join_tree(labelled)


def is_acyclic_query(query) -> bool:
    """Whether a CQ is acyclic (its hypergraph passes GYO)."""
    from repro.hypergraphs.hypergraph import hypergraph_of_query

    return is_acyclic(hypergraph_of_query(query))
