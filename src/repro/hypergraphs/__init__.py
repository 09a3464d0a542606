"""Hypergraphs, acyclicity, treewidth, (generalized) hypertree width."""

from repro.hypergraphs.hypergraph import (
    Hypergraph,
    hypergraph_of_query,
    hypergraph_of_structure,
)
from repro.hypergraphs.gyo import (
    gyo_join_tree,
    is_acyclic,
    is_acyclic_query,
    join_tree,
)
from repro.hypergraphs.treedecomp import HypertreeDecomposition, TreeDecomposition
from repro.hypergraphs.treewidth import (
    decomposition_from_elimination,
    query_treewidth_at_most,
    tree_decomposition,
    treewidth_at_most,
    treewidth_exact,
    treewidth_of_query,
    treewidth_upper_bound,
)
from repro.hypergraphs.hypertree import (
    hypertree_decomposition,
    hypertree_width,
    hypertree_width_at_most,
    query_hypertree_width_at_most,
)
from repro.hypergraphs.ghw import (
    generalized_hypertree_decomposition,
    generalized_hypertree_width,
    generalized_hypertree_width_at_most,
    query_ghw_at_most,
)

__all__ = [
    "Hypergraph",
    "HypertreeDecomposition",
    "TreeDecomposition",
    "decomposition_from_elimination",
    "generalized_hypertree_decomposition",
    "generalized_hypertree_width",
    "generalized_hypertree_width_at_most",
    "gyo_join_tree",
    "hypergraph_of_query",
    "hypergraph_of_structure",
    "hypertree_decomposition",
    "hypertree_width",
    "hypertree_width_at_most",
    "is_acyclic",
    "is_acyclic_query",
    "join_tree",
    "query_ghw_at_most",
    "query_hypertree_width_at_most",
    "query_treewidth_at_most",
    "tree_decomposition",
    "treewidth_at_most",
    "treewidth_exact",
    "treewidth_of_query",
    "treewidth_upper_bound",
]
