"""Cross-validation of the width notions on random hypergraphs.

Known relationships give strong oracle-free checks of the det-k-decomp
style solver and the GHW search:

* ``ghw(H) ≤ htw(H)`` (every hypertree decomposition is generalized);
* ``htw(H) = 1  ⟺  H acyclic  ⟺  ghw(H) = 1``;
* every produced decomposition validates against its definition;
* ``htw(H) ≤ |E|`` trivially (guard everything at one node... per cover).

:class:`TestDefinitionOracle` adds an oracle taken from the definition
alone: ``ghw(H)`` is the least, over elimination orders of the primal
graph, of the largest edge-cover number of an elimination bag (every tree
decomposition refines to an elimination order whose bags sit inside its
bags, and covers are monotone).  It is exact and brute force — 720 orders
on six vertices — and shares no code with the solver.

Drawn hypergraphs sometimes carry one extra vertex in no hyperedge.  As in
Gottlob–Leone–Scarcello, whose ``V(H)`` is ``⋃E(H)``, such a vertex needs
no bag: no guard could cover it.
"""

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.classes import AC, GHTW1, HTW1
from repro.testing import reference
from repro.hypergraphs import (
    Hypergraph,
    generalized_hypertree_decomposition,
    generalized_hypertree_width,
    generalized_hypertree_width_at_most,
    hypertree_decomposition,
    hypertree_width,
    hypertree_width_at_most,
    is_acyclic,
)
from repro.hypergraphs.gyo import edge_masks_acyclic
from repro.hypergraphs.hypertree import _WidthSolver, edge_masks_width_at_most
from tests.test_properties import hypergraphs as edge_hypergraphs

#: A vertex no drawn hyperedge uses (drawn vertices stay below 6).
_ISOLATED = 99


def hypergraphs(max_vertices: int = 6, max_edges: int = 5):
    """Random hypergraphs, about half of them plus the vertex ``_ISOLATED``."""
    return st.tuples(edge_hypergraphs(max_vertices, max_edges), st.booleans()).map(
        lambda drawn: Hypergraph(drawn[0].edges, vertices={_ISOLATED})
        if drawn[1]
        else drawn[0]
    )


def ghw_by_definition(hypergraph) -> int:
    """``min`` over elimination orders of ``max`` edge-cover number of a bag."""
    edges = list(hypergraph.edges)

    @lru_cache(maxsize=None)
    def cover_number(bag: frozenset) -> int:
        for size in range(1, len(edges) + 1):
            for chosen in combinations(edges, size):
                if bag <= frozenset().union(*chosen):
                    return size
        raise AssertionError(f"{set(bag)!r} is not covered by the edges")

    neighbours = {vertex: set() for edge in edges for vertex in edge}
    for edge in edges:
        for vertex in edge:
            neighbours[vertex] |= edge - {vertex}
    best = len(edges)
    for order in permutations(sorted(neighbours)):
        filled = {vertex: set(adjacent) for vertex, adjacent in neighbours.items()}
        worst = 0
        for vertex in order:
            adjacent = filled.pop(vertex)
            worst = max(worst, cover_number(frozenset(adjacent | {vertex})))
            if worst >= best:
                break
            for other in adjacent:
                filled[other] |= adjacent - {other}
                filled[other].discard(vertex)
        best = min(best, worst)
    return best


def _edge_masks(hypergraph) -> list[int]:
    return [sum(1 << vertex for vertex in edge) for edge in hypergraph.edges]


#: Acyclic, but a component split that also joins edges through bag
#: vertices finds no width-1 decomposition (random draws rarely hit it).
_JOINED_THROUGH_BAG = Hypergraph(
    [{0, 1, 4}, {4, 5}, {1, 2, 5}, {1, 4, 5}, {3, 4, 5}]
)

#: A path plus a vertex in no hyperedge: its decompositions must validate.
_WITH_ISOLATED = Hypergraph([{0, 1}, {1, 2}], vertices={_ISOLATED})


class TestDefinitionOracle:
    @given(hypergraphs(max_vertices=6, max_edges=5))
    @example(_JOINED_THROUGH_BAG)
    @settings(max_examples=60, deadline=None)
    def test_ghw_matches_definition(self, h):
        assert generalized_hypertree_width(h) == ghw_by_definition(h)

    @given(hypergraphs(max_vertices=6, max_edges=5))
    @settings(max_examples=40, deadline=None)
    def test_definition_at_most_htw(self, h):
        assert ghw_by_definition(h) <= hypertree_width(h)

    @given(hypergraphs(max_vertices=6, max_edges=5))
    @settings(max_examples=60, deadline=None)
    def test_width_one_verdicts_agree_with_acyclicity(self, h):
        # The oracles share no code with the GYO kernel every width-1 check
        # now runs: the reference's set-based GYO and the decomposition
        # search at k = 1.
        acyclic = reference.acyclic(h.edges)
        assert (hypertree_decomposition(h, 1) is not None) == acyclic
        assert (generalized_hypertree_decomposition(h, 1) is not None) == acyclic
        assert is_acyclic(h) == acyclic
        assert hypertree_width_at_most(h, 1) == acyclic
        assert generalized_hypertree_width_at_most(h, 1) == acyclic
        masks = _edge_masks(h)
        for cls in (AC, HTW1, GHTW1):
            assert cls.contains_edge_masks(masks) == acyclic, cls

    @pytest.mark.parametrize("k", [1, 2, 3])
    @given(h=hypergraphs(max_vertices=6, max_edges=5))
    @example(h=_WITH_ISOLATED)
    @settings(max_examples=25, deadline=None)
    def test_decompositions_validate(self, k, h):
        htd = hypertree_decomposition(h, k)
        assert (htd is not None) == hypertree_width_at_most(h, k)
        if htd is not None:
            assert htd.width <= k
            assert htd.is_valid(h, special_condition=True), htd.validate(h)
        ghd = generalized_hypertree_decomposition(h, k)
        assert (ghd is not None) == (ghw_by_definition(h) <= k)
        assert (ghd is not None) == generalized_hypertree_width_at_most(h, k)
        if ghd is not None:
            assert ghd.width <= k
            assert ghd.is_valid(h, special_condition=False), (
                ghd.validate(h, special_condition=False)
            )


class TestWidthRelationships:
    @given(hypergraphs(max_vertices=6, max_edges=5))
    @settings(max_examples=40, deadline=None)
    def test_ghw_at_most_htw(self, h):
        assert generalized_hypertree_width(h) <= hypertree_width(h)

    @given(hypergraphs(max_vertices=6, max_edges=5))
    @settings(max_examples=40, deadline=None)
    def test_width_one_iff_acyclic(self, h):
        acyclic = reference.acyclic(h.edges)
        assert (hypertree_width(h) == 1) == acyclic
        assert (generalized_hypertree_width(h) == 1) == acyclic

    @given(hypergraphs(max_vertices=6, max_edges=5))
    @settings(max_examples=40, deadline=None)
    def test_htw_bounded_by_edge_count(self, h):
        assert hypertree_width(h) <= max(len(h.edges), 1)


class TestDecompositionValidity:
    @given(hypergraphs(max_vertices=6, max_edges=5))
    @example(_WITH_ISOLATED)
    @settings(max_examples=30, deadline=None)
    def test_htw_decomposition_validates(self, h):
        width = hypertree_width(h)
        decomposition = hypertree_decomposition(h, width)
        assert decomposition is not None
        assert decomposition.width <= width
        assert decomposition.is_valid(h, special_condition=True), (
            decomposition.validate(h)
        )

    @given(hypergraphs(max_vertices=6, max_edges=5))
    @example(_WITH_ISOLATED)
    @settings(max_examples=25, deadline=None)
    def test_ghw_decomposition_validates(self, h):
        width = generalized_hypertree_width(h)
        decomposition = generalized_hypertree_decomposition(h, width)
        assert decomposition is not None
        assert decomposition.width <= width
        assert decomposition.is_valid(h, special_condition=False), (
            decomposition.validate(h, special_condition=False)
        )

    @given(hypergraphs(max_vertices=5, max_edges=4))
    @settings(max_examples=25, deadline=None)
    def test_below_width_infeasible(self, h):
        width = hypertree_width(h)
        if width > 1:
            assert hypertree_decomposition(h, width - 1) is None


# --------------------------------------------------------------------------
# The width-1 kernel: bitmask GYO against the decomposition search
# --------------------------------------------------------------------------


def _small_mask_hypergraphs():
    """Edge-mask lists on at most 5 vertices with at most 5 edges.

    Every multiset of at most 4 edges over 4 vertices (empty, duplicate,
    nested and single-vertex edges included), then 3000 seeded draws of 5
    edges over 5 vertices, each edge empty, a copy or a submask of an
    earlier edge, a single vertex or random.
    """
    for count in range(5):
        yield from combinations_with_replacement(range(16), count)
    rng = random.Random(20120521)
    for _ in range(3000):
        masks: list[int] = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.randrange(5) if masks else rng.choice((0, 3, 4))
            if kind == 0:
                masks.append(0)
            elif kind == 1:
                masks.append(rng.choice(masks))
            elif kind == 2:
                masks.append(rng.choice(masks) & rng.randrange(32))
            elif kind == 3:
                masks.append(1 << rng.randrange(5))
            else:
                masks.append(rng.randrange(32))
        yield tuple(masks)


def test_width_one_kernel_matches_the_decomposition_search_and_the_reference():
    for masks in _small_mask_hypergraphs():
        edges = [{bit for bit in range(5) if mask >> bit & 1} for mask in masks]
        expected = reference.acyclic(edges)
        assert edge_masks_acyclic(masks) == expected, masks
        for general in (False, True):
            assert _WidthSolver(masks, 1, general).holds() == expected, (masks, general)
            assert edge_masks_width_at_most(masks, 1, general=general) == expected
