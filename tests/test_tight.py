"""Tests for tight approximations (Proposition 5.6)."""

import pytest

from repro.cq import is_contained_in, parse_query, path_query
from repro.core import (
    TW1,
    ApproximationConfig,
    gap_witness,
    has_gap,
    is_tight_approximation,
    tight_pair,
)
from repro.core import all_approximations
from repro.graphs import digraph_hom_exists
from repro.testing import reference
from repro.workloads import random_graph_query
from repro.graphs.gadgets import tight_g_k
from repro.graphs.oriented_paths import directed_path


class TestGadgetGk:
    def test_gk_maps_into_path(self):
        # Property 1 of the proof: G_k → P_{k+1}.
        for k in (3, 4, 5):
            assert digraph_hom_exists(tight_g_k(k), directed_path(k + 1).structure)

    def test_gk_not_into_shorter_path(self):
        assert not digraph_hom_exists(tight_g_k(3), directed_path(3).structure)

    def test_gk_shape(self):
        g = tight_g_k(4)
        assert len(g.domain) == 10
        assert g.total_tuples == 2 * 4 + 3


class TestGapChecking:
    def test_gap_between_g3_and_p4(self):
        # Property 2: nothing lies strictly between G_3 and P_4.
        query, approx = tight_pair(1)  # tableaux G_3 and P_4
        assert is_contained_in(approx, query)
        assert has_gap(approx, query)

    def test_no_gap_when_something_between(self):
        # P5 ⊂ P4 ⊂ Q2-ish chain: between P5 and P3 sits P4.
        low, high = path_query(5), path_query(3)
        assert is_contained_in(low, high)
        witness = gap_witness(low, high)
        assert witness is not None

    def test_gap_requires_containment(self):
        with pytest.raises(ValueError):
            gap_witness(path_query(2), path_query(3))

    def test_exact_limit_guard(self):
        q = parse_query(
            "Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,g), E(g,h), E(h,a)"
        )
        with pytest.raises(ValueError):
            gap_witness(path_query(1), q, ApproximationConfig(exact_limit=4))

    def test_fact_cap_answers_up_to_fourteen_atoms(self):
        # The two-atom path sits strictly between the 14-atom path and the
        # single edge, found among the fact subsets of the lower query.
        edge = parse_query("Q() :- E(x, y)")
        assert str(gap_witness(path_query(14), edge)) == (
            "Q() :- E(x0, x1), E(x1, x2)"
        )
        assert not has_gap(path_query(14), edge)

    def test_fact_cap_raises_past_fourteen_atoms(self):
        # No quotient of the edge is a witness, and a 15-atom path is past
        # the substructure search: no answer rather than a false gap.
        edge = parse_query("Q() :- E(x, y)")
        with pytest.raises(ValueError, match="capped at 14"):
            gap_witness(path_query(15), edge)
        with pytest.raises(ValueError, match="capped at 14"):
            has_gap(path_query(15), edge)


def _between(witness, lower, upper) -> bool:
    """``lower ⊂ witness ⊂ upper`` by the reference's homomorphism test."""
    w, lo, up = (reference.structure_of(q.tableau()) for q in (witness, lower, upper))
    return (
        reference.maps_into(w, lo)
        and not reference.maps_into(lo, w)
        and reference.maps_into(up, w)
        and not reference.maps_into(w, up)
    )


class TestGapWitnessAgainstTheDefinitions:
    #: ``gap_witness`` answers on directed paths, pinned as query text.
    PATHS = {
        (5, 3): "Q() :- E(x0, x1), E(x1, x2), E(x2, x3), E(x3, x4)",
        (4, 2): "Q() :- E(x0, x1), E(x1, x2), E(x2, x3)",
        (6, 2): "Q() :- E(x0, x1), E(x1, x2), E(x2, x3)",
        (3, 1): "Q() :- E(x0, x1), E(x1, x2)",
    }

    @pytest.mark.parametrize("pair", sorted(PATHS), ids=str)
    def test_path_witnesses(self, pair):
        lower, upper = (path_query(n) for n in pair)
        witness = gap_witness(lower, upper)
        assert str(witness) == self.PATHS[pair]
        assert _between(witness, lower, upper)

    @pytest.mark.parametrize("seed", range(4))
    def test_witnesses_below_seeded_queries(self, seed):
        # Every TW(1)-approximation of a seeded CQ against the CQ itself:
        # none is tight, and each witness sits strictly between by the
        # definition.
        query = random_graph_query(5, 7, seed=seed)
        for approximation in all_approximations(query, TW1):
            witness = gap_witness(approximation, query)
            assert witness is not None
            assert _between(witness, approximation, query)


class TestTightPair:
    @pytest.mark.slow
    def test_gap_pair_two_has_no_witness(self):
        query, approx = tight_pair(2)
        assert gap_witness(approx, query, ApproximationConfig(exact_limit=10)) is None

    @pytest.mark.slow
    def test_p4_is_tight_acyclic_approximation_of_g3(self):
        query, approx = tight_pair(1)
        assert is_tight_approximation(
            query, approx, TW1, ApproximationConfig(exact_limit=10)
        )

    def test_tight_pair_validation(self):
        with pytest.raises(ValueError):
            tight_pair(0)
