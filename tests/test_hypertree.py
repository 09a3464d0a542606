"""Tests for hypertree width and generalized hypertree width."""

import pytest

from repro.cq import parse_query
from repro.hypergraphs import (
    Hypergraph,
    generalized_hypertree_decomposition,
    generalized_hypertree_width,
    generalized_hypertree_width_at_most,
    hypergraph_of_query,
    hypertree_decomposition,
    hypertree_width,
    hypertree_width_at_most,
    is_acyclic,
    query_ghw_at_most,
    query_hypertree_width_at_most,
)


def cycle_hg(n: int) -> Hypergraph:
    return Hypergraph([{f"x{i}", f"x{(i + 1) % n}"} for i in range(n)])


class TestHypertreeWidth:
    def test_acyclic_iff_width_1(self):
        # Gottlob-Leone-Scarcello: htw(H) = 1 iff H is acyclic.  Width-1
        # checks run the GYO kernel too, so the decomposition search is
        # the independent side.
        examples = [
            Hypergraph([{"a", "b"}, {"b", "c"}]),
            Hypergraph([{"a", "b", "c"}, {"c", "d"}, {"d", "e", "f"}]),
            cycle_hg(3),
            cycle_hg(5),
            Hypergraph([{"x", "y"}, {"y", "z"}, {"z", "x"}, {"x", "y", "z"}]),
        ]
        for h in examples:
            assert (hypertree_width(h) == 1) == is_acyclic(h), h
            assert (hypertree_decomposition(h, 1) is not None) == is_acyclic(h), h

    def test_cycles_have_width_2(self):
        for n in (3, 4, 5, 6):
            assert hypertree_width(cycle_hg(n)) == 2

    def test_decomposition_is_valid(self):
        for h in [cycle_hg(4), cycle_hg(6), Hypergraph([{"a", "b"}, {"b", "c"}])]:
            k = hypertree_width(h)
            decomposition = hypertree_decomposition(h, k)
            assert decomposition is not None
            assert decomposition.width <= k
            assert decomposition.is_valid(h, special_condition=True), (
                decomposition.validate(h)
            )

    def test_width_zero_rejected(self):
        assert hypertree_decomposition(cycle_hg(3), 0) is None

    def test_empty_hypergraph(self):
        assert hypertree_width_at_most(Hypergraph([]), 1)

    def test_triangle_of_triples(self):
        # Example 6.6's query hypergraph: three ternary atoms in a cycle —
        # hypertree width 2.
        q = parse_query("Q() :- R(x1, x2, x3), R(x3, x4, x5), R(x5, x6, x1)")
        h = hypergraph_of_query(q)
        assert not is_acyclic(h)
        assert hypertree_width(h) == 2
        assert query_hypertree_width_at_most(q, 2)
        assert not query_hypertree_width_at_most(q, 1)


class TestGeneralizedHypertreeWidth:
    def test_ghw_at_most_htw(self):
        for h in [cycle_hg(3), cycle_hg(5), Hypergraph([{"a", "b"}, {"b", "c"}])]:
            assert generalized_hypertree_width(h) <= hypertree_width(h)

    def test_ghw_1_iff_acyclic(self):
        assert generalized_hypertree_width(Hypergraph([{"a", "b"}, {"b", "c"}])) == 1
        assert generalized_hypertree_width(cycle_hg(4)) == 2

    def test_ghw_decomposition_valid_without_special_condition(self):
        h = cycle_hg(5)
        decomposition = generalized_hypertree_decomposition(h, 2)
        assert decomposition is not None
        assert decomposition.is_valid(h, special_condition=False)

    def test_query_interface(self):
        q = parse_query("Q() :- R(x1, x2, x3), R(x3, x4, x5), R(x5, x6, x1)")
        assert query_ghw_at_most(q, 2)
        assert not query_ghw_at_most(q, 1)

    def test_ghw_width_zero(self):
        assert not generalized_hypertree_width_at_most(cycle_hg(3), 0)


class TestKnownSeparation:
    def test_htw_vs_tw_incomparable_direction(self):
        # One big hyperedge over many vertices: htw 1, but the primal graph
        # is a clique of high treewidth — hypergraph classes see structure
        # that graph classes miss (Section 6 motivation).
        from repro.hypergraphs import treewidth_exact

        h = Hypergraph([set(range(8))])
        assert hypertree_width(h) == 1
        assert treewidth_exact(h.primal_graph()) == 7

    def test_grid_like_hypergraph(self):
        h = Hypergraph(
            [
                {"a", "b"}, {"b", "c"},
                {"d", "e"}, {"e", "f"},
                {"a", "d"}, {"b", "e"}, {"c", "f"},
            ]
        )
        assert hypertree_width(h) == 2
        assert generalized_hypertree_width(h) == 2
