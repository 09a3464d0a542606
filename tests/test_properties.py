"""Property-based tests (hypothesis) for the core invariants.

These cover the algebraic heart of the reproduction: quotients are
homomorphic images, cores are equivalent retracts, Chandra–Merlin duality is
consistent with evaluation, the evaluation strategies agree, decompositions
validate, and approximations satisfy their defining conditions.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.cq import ConjunctiveQuery, Structure, Tableau, is_contained_in, minimize
from repro.cq.query import Atom
from repro.evaluation import backtracking_evaluate, evaluate, hom_evaluate
from repro.homomorphism import (
    core,
    core_tableau,
    hom_equivalent,
    hom_le,
    is_core,
    is_homomorphism,
)
from repro.hypergraphs import (
    Hypergraph,
    is_acyclic,
    join_tree,
    tree_decomposition,
    treewidth_at_most,
    treewidth_exact,
)
from repro.testing import reference
from repro.util import bell_number, partition_to_mapping, rgs_codes


# ------------------------------------------------------------- strategies

def edges_strategy(max_nodes: int = 5, max_edges: int = 8):
    node = st.integers(min_value=0, max_value=max_nodes - 1)
    return st.lists(
        st.tuples(node, node), min_size=1, max_size=max_edges, unique=True
    )


def digraphs(max_nodes: int = 5, max_edges: int = 8):
    return edges_strategy(max_nodes, max_edges).map(
        lambda edges: Structure({"E": edges})
    )


def graph_queries(max_nodes: int = 5, max_edges: int = 7):
    def to_query(edges):
        atoms = [Atom("E", (f"x{u}", f"x{v}")) for u, v in edges]
        return ConjunctiveQuery((), atoms)

    return edges_strategy(max_nodes, max_edges).map(to_query)


def hypergraphs(max_vertices: int = 6, max_edges: int = 5):
    vertex = st.integers(min_value=0, max_value=max_vertices - 1)
    edge = st.frozensets(vertex, min_size=1, max_size=3)
    return st.lists(edge, min_size=1, max_size=max_edges).map(Hypergraph)


# ------------------------------------------------------------- partitions

class TestPartitionProperties:
    @given(st.integers(min_value=0, max_value=7))
    def test_partition_count_is_bell(self, n):
        assert sum(1 for _ in rgs_codes(n)) == bell_number(n)
        assert list(rgs_codes(n)) == list(reference.partitions(n))

    @given(st.sets(st.integers(0, 6), min_size=1, max_size=5))
    def test_partition_mapping_is_idempotent(self, items):
        items = sorted(items)
        for code in reference.partitions(len(items)):
            partition = [
                [x for x, block in zip(items, code) if block == b]
                for b in range(max(code) + 1)
            ]
            mapping = partition_to_mapping(partition)
            assert all(mapping[mapping[x]] == mapping[x] for x in items)


# ------------------------------------------------------------- quotients

class TestQuotientProperties:
    @given(digraphs())
    @settings(max_examples=40, deadline=None)
    def test_every_quotient_is_above(self, structure):
        from repro.core import iter_quotient_tableaux

        tableau = Tableau(structure)
        for quotient in iter_quotient_tableaux(tableau):
            assert hom_le(tableau, quotient)


# ------------------------------------------------------------------ cores

class TestCoreProperties:
    @given(digraphs())
    @settings(max_examples=50, deadline=None)
    def test_core_is_equivalent_retract(self, structure):
        cored, retraction = core(structure)
        assert is_homomorphism(structure, cored, retraction)
        assert cored.is_contained_in(structure)
        assert hom_equivalent(Tableau(structure), Tableau(cored))
        assert is_core(cored)

    @given(digraphs())
    @settings(max_examples=30, deadline=None)
    def test_core_idempotent(self, structure):
        cored, _ = core(structure)
        again, _ = core(cored)
        assert again == cored


# ------------------------------------------------------ containment duality

class TestContainmentProperties:
    @given(graph_queries(), graph_queries(), digraphs(max_nodes=4, max_edges=7))
    @settings(max_examples=40, deadline=None)
    def test_containment_implies_answer_containment(self, q1, q2, db):
        if is_contained_in(q1, q2):
            assert hom_evaluate(q1, db) <= hom_evaluate(q2, db)

    @given(graph_queries())
    @settings(max_examples=40, deadline=None)
    def test_minimize_preserves_semantics(self, query):
        minimized = minimize(query)
        assert is_contained_in(query, minimized)
        assert is_contained_in(minimized, query)
        assert minimized.num_atoms <= query.num_atoms

    @given(graph_queries())
    @settings(max_examples=25, deadline=None)
    def test_core_tableau_matches_minimize(self, query):
        cored = core_tableau(query.tableau())
        assert cored.structure.total_tuples == minimize(query).num_atoms


# ------------------------------------------------------------- evaluation

class TestEvaluationProperties:
    @given(graph_queries(max_nodes=4, max_edges=5), digraphs(max_nodes=5, max_edges=10))
    @settings(max_examples=40, deadline=None)
    def test_strategies_agree(self, query, db):
        reference = hom_evaluate(query, db)
        assert backtracking_evaluate(query, db) == reference
        assert evaluate(query, db, method="naive") == reference
        assert evaluate(query, db, method="treewidth") == reference
        assert evaluate(query, db, method="hypertree") == reference

    @given(graph_queries(max_nodes=4, max_edges=5), digraphs(max_nodes=5, max_edges=10))
    @settings(max_examples=30, deadline=None)
    def test_yannakakis_agrees_on_acyclic(self, query, db):
        from repro.hypergraphs import is_acyclic_query

        if is_acyclic_query(query):
            assert evaluate(query, db, method="yannakakis") == hom_evaluate(query, db)


# ----------------------------------------------------------- decompositions

class TestDecompositionProperties:
    @given(hypergraphs())
    @settings(max_examples=40, deadline=None)
    def test_gyo_join_tree_consistency(self, hypergraph):
        tree = join_tree(hypergraph)
        assert (tree is not None) == is_acyclic(hypergraph)
        if tree is not None and tree.number_of_nodes():
            assert nx.is_tree(tree)

    @given(hypergraphs(max_vertices=6, max_edges=5))
    @settings(max_examples=25, deadline=None)
    def test_tree_decomposition_is_valid(self, hypergraph):
        graph = hypergraph.primal_graph()
        width = treewidth_exact(graph)
        decomposition = tree_decomposition(graph, max(width, 0))
        assert decomposition is not None
        assert decomposition.is_valid(hypergraph) or not hypergraph.vertices

    @given(hypergraphs(max_vertices=6, max_edges=5))
    @settings(max_examples=25, deadline=None)
    def test_treewidth_decision_matches_exact(self, hypergraph):
        graph = hypergraph.primal_graph()
        width = treewidth_exact(graph)
        assert treewidth_at_most(graph, width)
        if width >= 0:
            assert not treewidth_at_most(graph, width - 1)


# ----------------------------------------------------------- approximations

class TestApproximationProperties:
    @given(graph_queries(max_nodes=4, max_edges=6))
    @settings(max_examples=15, deadline=None)
    def test_approximations_are_approximations(self, query):
        from repro.core import TW1, all_approximations, is_approximation

        results = all_approximations(query, TW1)
        assert results
        for result in results:
            assert TW1.contains_query(result)
            assert is_contained_in(result, query)
            assert is_approximation(query, result, TW1)

    @given(graph_queries(max_nodes=4, max_edges=6))
    @settings(max_examples=10, deadline=None)
    def test_approximations_pairwise_incomparable(self, query):
        from repro.core import TW1, all_approximations

        results = all_approximations(query, TW1)
        for i, a in enumerate(results):
            for b in results[i + 1 :]:
                assert not is_contained_in(a, b) or not is_contained_in(b, a)


# ----------------------------------------------------------------- balanced

class TestBalancedProperties:
    @given(digraphs())
    @settings(max_examples=50, deadline=None)
    def test_levels_are_consistent(self, structure):
        from repro.graphs import directed_path, height, is_balanced, levels
        from repro.homomorphism import homomorphism_exists

        lvl = levels(structure)
        if lvl is None:
            return
        # Within a weak component every edge raises the level by exactly 1.
        for u, v in structure.tuples("E"):
            assert lvl[v] == lvl[u] + 1
        h = height(structure)
        if h and h > 0:
            assert homomorphism_exists(structure, directed_path(h).structure)

    @given(digraphs())
    @settings(max_examples=50, deadline=None)
    def test_balanced_iff_hom_to_path(self, structure):
        from repro.graphs import is_balanced
        from repro.homomorphism import homomorphism_exists

        # Claim 5.2's characterization: balanced iff hom into long path.
        from repro.graphs import directed_path

        long_path = directed_path(len(structure.domain) + 1).structure
        assert is_balanced(structure) == homomorphism_exists(structure, long_path)
