"""Generalized hypertree width (Section 6).

A generalized hypertree decomposition drops the special condition: it is a
tree decomposition whose every bag is covered by at most ``k`` hyperedges.
Deciding ``ghw(H) ≤ k`` is NP-complete for ``k ≥ 3`` (Gottlob, Miklós,
Schwentick — cited as [22]), so unlike hypertree width the search is
complete and exponential: the bitmask kernel of
:mod:`repro.hypergraphs.hypertree` run with ``general=True``, which tries
*every* bag between a state's connector and the guard's maximal bag (a
submask walk down from the maximal bag), not only the maximal one.
Intended for the tableau-sized hypergraphs of this library.
"""

from __future__ import annotations

from repro.hypergraphs.hypergraph import Hypergraph, _vertex_masks
from repro.hypergraphs.hypertree import _WidthSolver, edge_masks_width_at_most
from repro.hypergraphs.treedecomp import HypertreeDecomposition


def generalized_hypertree_decomposition(
    hypergraph: Hypergraph, k: int
) -> HypertreeDecomposition | None:
    """A width-``≤ k`` generalized hypertree decomposition, or ``None``."""
    if k < 1:
        return None
    vertices, masks = _vertex_masks(hypergraph)
    return _WidthSolver(masks, k, general=True).decomposition(vertices)


def generalized_hypertree_width_at_most(hypergraph: Hypergraph, k: int) -> bool:
    """Whether ``ghw(H) ≤ k`` (complete search; no decomposition tree is built)."""
    return edge_masks_width_at_most(
        _vertex_masks(hypergraph)[1], k, general=True
    )


def generalized_hypertree_width(hypergraph: Hypergraph, *, max_k: int | None = None) -> int:
    """The exact generalized hypertree width."""
    bound = max_k if max_k is not None else max(len(hypergraph.edges), 1)
    for k in range(1, bound + 1):
        if generalized_hypertree_width_at_most(hypergraph, k):
            return k
    raise ValueError(f"generalized hypertree width exceeds {bound}")


def query_ghw_at_most(query, k: int) -> bool:
    """Membership test for the class GHTW(k) of Section 6."""
    from repro.hypergraphs.hypergraph import hypergraph_of_query

    return generalized_hypertree_width_at_most(hypergraph_of_query(query), k)
