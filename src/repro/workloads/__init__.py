"""Workload generators: random queries, random data, paper families."""

from repro.workloads.random_queries import (
    cycle_with_chords,
    grid_query,
    random_cq,
    random_graph_query,
)
from repro.workloads.random_data import (
    chain_join_db,
    chain_join_query,
    path_heavy_db,
    random_database,
    random_digraph_db,
    scaled_database,
    scaled_digraph_db,
    social_network_db,
    stream_matrix,
    stream_tuples,
    union_with_pattern,
)

__all__ = [
    "chain_join_db",
    "chain_join_query",
    "cycle_with_chords",
    "grid_query",
    "path_heavy_db",
    "random_cq",
    "random_database",
    "random_digraph_db",
    "random_graph_query",
    "scaled_database",
    "scaled_digraph_db",
    "social_network_db",
    "stream_matrix",
    "stream_tuples",
    "union_with_pattern",
]
