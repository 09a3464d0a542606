"""Tests for homomorphism duality and the NT gap machinery (Prop 5.6)."""

import pytest
from hypothesis import given, settings

from repro.cq import Structure, Tableau
from repro.graphs import digraph
from repro.graphs.duality import (
    categorical_product,
    holds_duality,
    is_gap_violator,
    nt_gap_pair,
    path_dual,
    transitive_tournament,
)
from repro.graphs.gadgets import tight_g_k
from repro.graphs.oriented_paths import directed_path
from repro.homomorphism import hom_equivalent, homomorphism_exists, is_core
from repro.testing import reference
from tests.test_properties import digraphs


class TestProduct:
    def test_product_is_meet(self):
        c2 = digraph([(0, 1), (1, 0)])
        p2 = directed_path(2).structure
        product = categorical_product(c2, p2)
        # X → G×H iff X → G and X → H: the projections exist.
        assert homomorphism_exists(product, c2)
        assert homomorphism_exists(product, p2)

    @given(digraphs(max_nodes=4, max_edges=6), digraphs(max_nodes=3, max_edges=5))
    @settings(max_examples=25, deadline=None)
    def test_projections_always_exist(self, g, h):
        product = categorical_product(g, h)
        if product.tuples("E"):
            assert homomorphism_exists(product, g)
            assert homomorphism_exists(product, h)

    def test_product_sizes(self):
        t = transitive_tournament(3)
        p = directed_path(2).structure
        product = categorical_product(t, p)
        assert len(product.domain) == 9
        assert product.total_tuples == 6


class TestPathDuality:
    def test_tournament_shape(self):
        t = transitive_tournament(4)
        assert t.total_tuples == 6
        with pytest.raises(ValueError):
            transitive_tournament(0)

    @given(digraphs(max_nodes=5, max_edges=8))
    @settings(max_examples=60, deadline=None)
    def test_gallai_roy_duality(self, h):
        # H → tournament_n  iff  P_n ↛ H, for n = 3.
        assert holds_duality(directed_path(3).structure, path_dual(3), h)

    def test_duality_on_cycles_and_dags(self):
        c3 = digraph([(0, 1), (1, 2), (2, 0)])
        assert homomorphism_exists(directed_path(3).structure, c3)
        assert not homomorphism_exists(c3, path_dual(3))
        dag = digraph([(0, 1), (0, 2), (1, 2)])
        assert homomorphism_exists(dag, path_dual(3))


class TestNTGap:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_gap_lower_element_is_paper_g_k(self, k):
        lower, upper = nt_gap_pair(k)
        assert is_core(lower)
        assert hom_equivalent(Tableau(lower), Tableau(tight_g_k(k)))
        assert len(lower.domain) == len(tight_g_k(k).domain)

    def test_gap_pair_ordering(self):
        lower, upper = nt_gap_pair(3)
        assert homomorphism_exists(lower, upper)
        assert not homomorphism_exists(upper, lower)

    def test_no_quotient_violates_gap(self):
        # Sample middles: quotients of the lower element never sit strictly
        # between (NT guarantee, spot-checked on every partition).
        lower, upper = nt_gap_pair(3)
        base = reference.structure_of(Tableau(lower))
        for code in reference.partitions(base[0]):
            _, facts, _ = reference.quotient(base, code)
            middle = Structure({"E": [row for _, row in facts]})
            assert not is_gap_violator(lower, upper, middle)

    @given(digraphs(max_nodes=5, max_edges=8))
    @settings(max_examples=40, deadline=None)
    def test_random_digraphs_never_violate_gap(self, middle):
        lower, upper = nt_gap_pair(3)
        assert not is_gap_violator(lower, upper, middle)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            nt_gap_pair(0)
