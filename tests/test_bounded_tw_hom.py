"""Tests for homomorphisms from bounded-treewidth sources."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq import Structure, parse_query
from repro.homomorphism import (
    bounded_treewidth_homomorphism,
    bounded_tw_hom_exists,
    containment_via_treewidth,
    find_homomorphism,
    homomorphism_exists,
    is_homomorphism,
)
from repro.hypergraphs.treewidth import treewidth_exact
from tests.test_properties import digraphs


def directed_cycle(n: int) -> Structure:
    return Structure({"E": [(i, (i + 1) % n) for i in range(n)]})


def directed_path(n: int) -> Structure:
    return Structure({"E": [(i, i + 1) for i in range(n)]})


class TestBasics:
    def test_path_into_cycle(self):
        h = bounded_treewidth_homomorphism(directed_path(5), directed_cycle(3))
        assert h is not None
        assert is_homomorphism(directed_path(5), directed_cycle(3), h)

    def test_no_hom_detected(self):
        assert not bounded_tw_hom_exists(directed_cycle(5), directed_cycle(3))

    def test_cycle_into_cycle(self):
        h = bounded_treewidth_homomorphism(directed_cycle(6), directed_cycle(3))
        assert h is not None and is_homomorphism(
            directed_cycle(6), directed_cycle(3), h
        )

    def test_pin(self):
        h = bounded_treewidth_homomorphism(
            directed_path(2), directed_path(2), pin={0: 0}
        )
        assert h == {0: 0, 1: 1, 2: 2}

    def test_pin_infeasible(self):
        assert (
            bounded_treewidth_homomorphism(
                directed_path(2), directed_path(2), pin={0: 2}
            )
            is None
        )

    def test_pin_unknown_element(self):
        with pytest.raises(ValueError):
            bounded_treewidth_homomorphism(
                directed_path(1), directed_path(1), pin={99: 0}
            )

    def test_width_too_small(self):
        with pytest.raises(ValueError):
            bounded_treewidth_homomorphism(
                directed_cycle(4), directed_cycle(4), k=1
            )

    def test_higher_arity(self):
        src = Structure({"R": [("a", "b", "c"), ("c", "d", "e")]})
        dst = Structure({"R": [(1, 2, 3), (3, 4, 5)]})
        h = bounded_treewidth_homomorphism(src, dst)
        assert h is not None and is_homomorphism(src, dst, h)

    def test_empty_source(self):
        empty = Structure({"E": []}, vocabulary={"E": 2})
        assert bounded_treewidth_homomorphism(empty, directed_path(1)) == {}


class TestAgreementWithEngine:
    @given(digraphs(max_nodes=5, max_edges=7), digraphs(max_nodes=4, max_edges=8))
    @settings(max_examples=50, deadline=None)
    def test_existence_agrees(self, source, target):
        assert bounded_tw_hom_exists(source, target) == homomorphism_exists(
            source, target
        )

    @given(digraphs(max_nodes=5, max_edges=7), digraphs(max_nodes=4, max_edges=8))
    @settings(max_examples=30, deadline=None)
    def test_returned_map_is_a_hom(self, source, target):
        h = bounded_treewidth_homomorphism(source, target)
        if h is not None:
            assert is_homomorphism(source, target, h)


class TestContainmentFastPath:
    def test_agrees_with_chandra_merlin(self):
        from repro.cq import is_contained_in

        cases = [
            ("Q() :- E(x, y), E(y, z)", "Q() :- E(x, y)"),
            ("Q() :- E(x, y)", "Q() :- E(x, y), E(y, z)"),
            ("Q(x) :- E(x, y), E(y, z)", "Q(x) :- E(x, y)"),
            ("Q() :- E(x, y), E(y, z), E(z, x)", "Q() :- E(x, x)"),
            ("Q() :- E(x, x)", "Q() :- E(x, y), E(y, z), E(z, x)"),
        ]
        for sub_text, sup_text in cases:
            sub, sup = parse_query(sub_text), parse_query(sup_text)
            assert containment_via_treewidth(sub, sup) == is_contained_in(sub, sup)

    def test_head_pin_inconsistency(self):
        sub = parse_query("Q(x, y) :- E(x, y)")
        sup = parse_query("Q(x, x) :- E(x, x)")
        # T_sup has one distinguished element needing two images: no hom.
        assert containment_via_treewidth(sub, sup) is False


def assert_agrees(source, target, pin=None, k=None):
    """Both entry points answer as the backtracking engine does, and the
    witness is a homomorphism extending ``pin``."""
    expected = homomorphism_exists(source, target, pin=pin)
    assert bounded_tw_hom_exists(source, target, pin=pin, k=k) == expected
    h = bounded_treewidth_homomorphism(source, target, pin=pin, k=k)
    assert (h is not None) == expected
    if h is not None:
        assert is_homomorphism(source, target, h)
        assert all(h[element] == image for element, image in (pin or {}).items())


TERNARY = Structure({"R": [("a", "b", "c"), ("c", "d", "e")]})
TERNARY_TARGET = Structure({"R": [(1, 2, 3), (3, 4, 5), (3, 3, 3)]})
WITH_ISOLATED = Structure({"E": [(0, 1)]}, domain=[0, 1, "iso"])
EMPTY_TARGET = Structure({"E": []}, vocabulary={"E": 2})
# Treewidth 2: a 4-cycle with a chord, and a 2x3 grid.
CHORDED = Structure({"E": [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]})
GRID = Structure({"E": [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]})


class TestAgreementOnEdgeCases:
    @pytest.mark.parametrize(
        "source,target",
        [
            (directed_cycle(4), directed_cycle(2)),
            (directed_cycle(5), directed_cycle(3)),
            (directed_cycle(6), directed_cycle(3)),
            (CHORDED, directed_cycle(3)),
            (CHORDED, Structure({"E": [(0, 1), (1, 2), (0, 2), (2, 0)]})),
            (GRID, directed_path(3)),
            (GRID, directed_cycle(2)),
        ],
    )
    def test_treewidth_two_sources_at_k2(self, source, target):
        assert_agrees(source, target, k=2)

    @pytest.mark.parametrize(
        "pin", [None, {"a": 1}, {"a": 3}, {"e": 5}, {"a": 2}, {"c": 3, "e": 3}]
    )
    def test_ternary_relation_with_pins(self, pin):
        assert_agrees(TERNARY, TERNARY_TARGET, pin=pin)

    @pytest.mark.parametrize(
        "pin", [None, {"iso": 1}, {"iso": 0, 0: 0}, {"iso": 99}, {0: 1}]
    )
    def test_element_in_no_fact(self, pin):
        assert_agrees(WITH_ISOLATED, directed_path(1), pin=pin)

    def test_element_in_no_fact_maps_into_the_domain(self):
        lone = Structure({"E": []}, vocabulary={"E": 2}, domain=["x"])
        target = Structure({"E": [(0, 1)]}, domain=[0, 1, 2])
        assert bounded_treewidth_homomorphism(lone, target) == {"x": 0}
        assert bounded_treewidth_homomorphism(lone, target, pin={"x": 2}) == {"x": 2}
        assert bounded_treewidth_homomorphism(lone, target, pin={"x": 3}) is None

    @pytest.mark.parametrize(
        "source",
        [
            Structure({"E": [(0, 1)], "F": [(1, 1)]}),
            Structure({"F": [(0, 0)]}, domain=[0, 1]),
        ],
    )
    def test_relation_absent_from_target(self, source):
        assert_agrees(source, directed_cycle(3))

    @pytest.mark.parametrize(
        "source", [directed_path(1), WITH_ISOLATED, Structure({}, domain=["x"])]
    )
    def test_empty_target_domain(self, source):
        assert_agrees(source, EMPTY_TARGET)

    def test_relation_of_another_arity_in_target(self):
        assert_agrees(TERNARY, Structure({"R": [(1, 2), (2, 3)]}))


class TestAgreementWithPins:
    @given(
        digraphs(max_nodes=5, max_edges=7),
        digraphs(max_nodes=4, max_edges=8),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_pinned_agrees_at_k2(self, source, target, data):
        elements = sorted(source.domain)
        images = sorted(target.domain) + [99]
        pin = data.draw(
            st.dictionaries(
                st.sampled_from(elements), st.sampled_from(images), max_size=2
            )
            if elements
            else st.just({})
        )
        primal = nx.Graph((u, v) for _, (u, v) in source.facts() if u != v)
        if max(treewidth_exact(primal), 0) <= 2:
            assert_agrees(source, target, pin=pin, k=2)
        else:
            with pytest.raises(ValueError):
                bounded_tw_hom_exists(source, target, pin=pin, k=2)


class TestContainmentOnRandomQueries:
    @pytest.mark.parametrize("head_size", [1, 2])
    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_is_contained_in(self, head_size, seed):
        from repro.cq import is_contained_in
        from repro.workloads import random_graph_query

        a = random_graph_query(
            5, 7, seed=seed, head_size=head_size, allow_loops=seed % 3 == 0
        )
        b = random_graph_query(3 + seed % 3, 4, seed=seed + 100, head_size=head_size)
        for sub, sup in [(a, b), (b, a), (a, a)]:
            assert containment_via_treewidth(sub, sup) == is_contained_in(sub, sup)
