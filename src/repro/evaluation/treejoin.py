"""The shared Yannakakis-style tree algorithm.

Yannakakis evaluation and hypertree evaluation reduce to the same skeleton:
a tree whose nodes carry bindings relations, processed with an upward
semijoin sweep, a downward semijoin sweep, and a final upward join-project
that keeps only head variables plus connectors.
This module implements that skeleton once, over an operator *kernel*
(columnar or tuple-at-a-time — see :mod:`repro.evaluation.kernels`); the
node relations must come from the same kernel.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import networkx as nx

from repro.evaluation.stats import EvalStats

Answer = frozenset[tuple]


def tree_join_evaluate(
    tree: nx.Graph,
    bindings: Mapping[Hashable, object],
    head: Sequence[str],
    stats: EvalStats | None = None,
    *,
    kernel=None,
) -> Answer:
    """Evaluate an acyclic join of ``bindings`` along ``tree``.

    ``tree`` must be a tree (or a single node) whose node set equals the keys
    of ``bindings``; the bindings must satisfy the join-tree property (shared
    variables of two nodes appear along the path between them).  ``head``
    variables must each occur in some node.  ``kernel`` defaults to the
    tuple-at-a-time algebra for backward compatibility with callers holding
    plain :class:`~repro.evaluation.relation.Bindings`.
    """
    if kernel is None:
        from repro.evaluation.kernels import TupleKernel

        kernel = TupleKernel(stats)

    nodes = list(tree.nodes)
    if set(nodes) != set(bindings):
        raise ValueError("tree nodes and bindings keys differ")
    if not nodes:
        return frozenset({()}) if not head else frozenset()

    head = tuple(head)
    local: dict[Hashable, object] = dict(bindings)
    root = nodes[0]
    order = list(nx.dfs_postorder_nodes(tree, source=root))
    parent: dict[Hashable, Hashable] = {
        child: par for par, child in nx.bfs_edges(tree, source=root)
    }

    # Upward semijoin sweep: after it, the root is consistent downward.
    for node in order:
        if node == root:
            continue
        par = parent[node]
        local[par] = kernel.semijoin(local[par], local[node])
        if local[par].is_empty:
            return frozenset()

    # Downward sweep: full reduction (global consistency).
    for node in reversed(order):
        for child in tree.neighbors(node):
            if parent.get(child) == node:
                local[child] = kernel.semijoin(local[child], local[node])

    # Final upward join, projecting to head variables plus the connector to
    # the parent — the Yannakakis answer-computation pass.
    head_set = set(head)
    results: dict[Hashable, object] = {}

    for node in order:
        current = local[node]
        for child in tree.neighbors(node):
            if parent.get(child) == node:
                current = kernel.join(current, results[child])
        if node == root:
            keep = [c for c in current.columns if c in head_set]
        else:
            parent_columns = set(local[parent[node]].columns)
            keep = [
                c
                for c in current.columns
                if c in head_set or c in parent_columns
            ]
        results[node] = kernel.project(current, keep)

    final = results[root]
    missing = head_set - set(final.columns)
    if missing:
        raise ValueError(
            f"head variables {sorted(map(repr, missing))} not covered by the tree"
        )
    return kernel.project_answer(final, head)
