"""Treewidth: exact decision procedure, exact value, and heuristics.

Treewidth equals the minimum over elimination orders of the maximum degree
at elimination time.  The decision kernel :class:`_EliminationSolver`
explores elimination orders over neighbor bitmasks (vertex ``i`` is bit
``i``), memoized on the int of remaining vertices; the "filled" adjacency
of a state is a function of the remaining set alone (two remaining vertices
are adjacent iff they are adjacent in ``G`` or connected through eliminated
vertices), which makes the memoization sound.

:func:`adjacency_treewidth_at_most` answers straight from the masks (the
pipeline's integer candidates use it, so no graph object is built per
check); :func:`treewidth_at_most` and :func:`tree_decomposition` map an
``nx.Graph`` onto the same kernel, bits in ``repr`` order of the vertices.
This is exponential in general — fine for tableau-sized graphs, which is
where the paper needs it (class membership tests for TW(k) and the
approximation search).  ``treewidth_upper_bound`` provides a min-fill
heuristic for larger inputs.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import networkx as nx

from repro.hypergraphs.treedecomp import TreeDecomposition

Vertex = Hashable


def _simple(graph: nx.Graph) -> nx.Graph:
    """Copy of the graph without self-loops (loops don't affect treewidth)."""
    cleaned = nx.Graph()
    cleaned.add_nodes_from(graph.nodes)
    cleaned.add_edges_from((u, v) for u, v in graph.edges if u != v)
    return cleaned


def _adjacency(graph: nx.Graph) -> tuple[list[Vertex], list[int]]:
    """The vertices in ``repr`` order and their loop-free neighbor masks."""
    vertices = sorted(graph.nodes, key=repr)
    bit = {vertex: i for i, vertex in enumerate(vertices)}
    adjacency = [0] * len(vertices)
    for u, v in graph.edges:
        if u != v:
            adjacency[bit[u]] |= 1 << bit[v]
            adjacency[bit[v]] |= 1 << bit[u]
    return vertices, adjacency


class _EliminationSolver:
    """Decides ``tw(G) ≤ k`` and produces a witnessing elimination order."""

    def __init__(self, adjacency: Sequence[int], k: int) -> None:
        self.adjacency = adjacency
        self.k = k
        self.memo: dict[int, bool] = {}
        self.order: dict[int, int] = {}

    def filled_neighbors(self, remaining: int, vertex: int) -> int:
        """Neighbours of ``vertex`` in the filled graph on ``remaining``.

        ``u`` is a filled neighbor iff an original path joins them whose
        interior avoids ``remaining``.
        """
        adjacency = self.adjacency
        seen = adjacency[vertex] | (1 << vertex)
        neighbors = adjacency[vertex] & remaining
        through = adjacency[vertex] & ~remaining
        while through:
            low = through & -through
            through ^= low
            new = adjacency[low.bit_length() - 1] & ~seen
            seen |= new
            neighbors |= new & remaining
            through |= new & ~remaining
        return neighbors

    def decide(self, remaining: int) -> bool:
        if remaining.bit_count() <= self.k + 1:
            return True
        cached = self.memo.get(remaining)
        if cached is not None:
            return cached
        # Eliminate low-degree vertices first (ties in bit order); once the
        # cheapest degree exceeds k, everything later is worse.
        candidates = []
        bits = remaining
        while bits:
            low = bits & -bits
            bits ^= low
            vertex = low.bit_length() - 1
            candidates.append(
                (self.filled_neighbors(remaining, vertex).bit_count(), vertex)
            )
        candidates.sort()
        result = False
        for degree, vertex in candidates:
            if degree > self.k:
                break
            if self.decide(remaining & ~(1 << vertex)):
                self.order[remaining] = vertex
                result = True
                break
        self.memo[remaining] = result
        return result

    def elimination_order(self) -> list[int] | None:
        remaining = (1 << len(self.adjacency)) - 1
        if not self.decide(remaining):
            return None
        order: list[int] = []
        while remaining.bit_count() > self.k + 1:
            vertex = self.order[remaining]
            order.append(vertex)
            remaining &= ~(1 << vertex)
        order.extend(i for i in range(len(self.adjacency)) if remaining >> i & 1)
        return order


def adjacency_treewidth_at_most(adjacency: Sequence[int], k: int) -> bool:
    """Whether the graph with loop-free neighbor masks ``adjacency``
    (vertex ``i`` is bit ``i``) has treewidth at most ``k``."""
    if k < 0:
        return not adjacency
    return _EliminationSolver(adjacency, k).decide((1 << len(adjacency)) - 1)


def treewidth_at_most(graph: nx.Graph, k: int) -> bool:
    """Exact decision: does ``graph`` have treewidth at most ``k``?"""
    return adjacency_treewidth_at_most(_adjacency(graph)[1], k)


def treewidth_exact(graph: nx.Graph) -> int:
    """The exact treewidth, by increasing the decision bound.

    An upper bound from the min-fill heuristic caps the search.
    """
    adjacency = _adjacency(graph)[1]
    if not adjacency:
        return -1
    upper = treewidth_upper_bound(graph)
    for k in range(upper + 1):
        if adjacency_treewidth_at_most(adjacency, k):
            return k
    return upper


def treewidth_upper_bound(graph: nx.Graph) -> int:
    """A min-fill heuristic upper bound (networkx's approximation)."""
    from networkx.algorithms.approximation import treewidth_min_fill_in

    simple = _simple(graph)
    if simple.number_of_nodes() == 0:
        return -1
    width, _ = treewidth_min_fill_in(simple)
    return width


def decomposition_from_elimination(
    graph: nx.Graph, order: Sequence[Vertex]
) -> TreeDecomposition:
    """The tree decomposition induced by an elimination order.

    Bag of ``v`` = ``{v} ∪ (neighbors of v at elimination time)``; the bag of
    ``v`` hangs off the bag of the earliest-later eliminated neighbor.
    """
    simple = _simple(graph)
    if set(order) != set(simple.nodes):
        raise ValueError("order must enumerate every vertex exactly once")

    position = {v: i for i, v in enumerate(order)}
    working = simple.copy()
    bags: dict[Vertex, frozenset[Vertex]] = {}
    parent_of: dict[Vertex, Vertex] = {}

    for vertex in order:
        neighbors = set(working.neighbors(vertex))
        bags[vertex] = frozenset(neighbors | {vertex})
        if neighbors:
            parent_of[vertex] = min(neighbors, key=lambda u: position[u])
        for u in neighbors:
            for w in neighbors:
                if u != w:
                    working.add_edge(u, w)
        working.remove_node(vertex)

    tree = nx.Graph()
    tree.add_nodes_from(order)
    for child, parent in parent_of.items():
        tree.add_edge(child, parent)
    # A disconnected graph yields a forest; chain the component roots so the
    # result is a single tree (bags of different components share no vertex,
    # so extra tree edges cannot break the connectedness condition).
    components = [sorted(c, key=repr)[0] for c in nx.connected_components(tree)]
    for left, right in zip(components, components[1:]):
        tree.add_edge(left, right)
    return TreeDecomposition(tree, bags)


def tree_decomposition(graph: nx.Graph, k: int) -> TreeDecomposition | None:
    """A width-``≤ k`` tree decomposition of the graph, or ``None``."""
    vertices, adjacency = _adjacency(graph)
    if not vertices:
        return TreeDecomposition(nx.Graph(), {})
    order = _EliminationSolver(adjacency, k).elimination_order()
    if order is None:
        return None
    decomposition = decomposition_from_elimination(graph, [vertices[i] for i in order])
    assert decomposition.width <= k
    return decomposition


def treewidth_of_query(query) -> int:
    """Treewidth of ``G(Q)`` — the graph-based tractability measure."""
    return treewidth_exact(query.graph())


def query_treewidth_at_most(query, k: int) -> bool:
    """Membership test for the class TW(k) of Section 4."""
    return treewidth_at_most(query.graph(), k)
