"""Tests for CQ containment, equivalence and minimization."""

import pytest

from repro.cq import (
    are_equivalent,
    containment_witness,
    is_contained_in,
    is_minimal,
    is_strictly_contained_in,
    minimize,
    parse_query,
    trivial_query,
)


class TestContainment:
    def test_path_contains_shorter_requirement(self):
        # Q ⊆ Q': asking for a 2-path is stronger than asking for a 1-path.
        q_long = parse_query("Q() :- E(x, y), E(y, z)")
        q_short = parse_query("Q() :- E(x, y)")
        assert is_contained_in(q_long, q_short)
        assert not is_contained_in(q_short, q_long)

    def test_loop_contained_in_everything_boolean(self):
        loop = parse_query("Q() :- E(x, x)")
        triangle = parse_query("Q() :- E(x, y), E(y, z), E(z, x)")
        assert is_contained_in(loop, triangle)
        assert not is_contained_in(triangle, loop)

    def test_trivial_query_is_contained_in_every_boolean_cq(self):
        # Q_trivial (Section 4.1): every tableau maps onto its one looped
        # variable, so it is contained in each Boolean CQ over the
        # vocabulary, and strictly so in a loop-free one.
        vocabulary = {"E": 2, "R": 3}
        trivial = trivial_query(vocabulary)
        assert trivial.atoms == parse_query(
            "Q() :- E(x, x), R(x, x, x)"
        ).atoms
        for text in (
            "Q() :- E(x, y), E(y, z), E(z, x)",
            "Q() :- R(x, y, z), E(z, x)",
            "Q() :- E(x, x), R(x, y, y)",
        ):
            query = parse_query(text)
            assert is_contained_in(trivial, query)
        assert not is_contained_in(parse_query("Q() :- E(x, y)"), trivial)
        with pytest.raises(ValueError):
            trivial_query({})

    def test_containment_witness_is_a_tableau_hom(self):
        q_long = parse_query("Q() :- E(x, y), E(y, z)")
        q_short = parse_query("Q() :- E(x, y)")
        witness = containment_witness(q_long, q_short)
        assert witness is not None
        assert set(witness) == {"x", "y"}

    def test_head_arity_mismatch(self):
        q1 = parse_query("Q(x) :- E(x, y)")
        q2 = parse_query("Q() :- E(x, y)")
        with pytest.raises(ValueError):
            is_contained_in(q1, q2)

    def test_free_variables_matter(self):
        # Boolean: 2-path ⊆ 1-path.  With all variables free, containment of
        # the 2-path in the 1-path pattern no longer holds.
        q1 = parse_query("Q(x, y) :- E(x, y), E(y, z)")
        q2 = parse_query("Q(x, y) :- E(x, y)")
        assert is_contained_in(q1, q2)
        q3 = parse_query("Q(x, z) :- E(x, y), E(y, z)")
        assert not is_contained_in(q3, q2)

    def test_strict_containment(self):
        q_long = parse_query("Q() :- E(x, y), E(y, z)")
        q_short = parse_query("Q() :- E(x, y)")
        assert is_strictly_contained_in(q_long, q_short)
        assert not is_strictly_contained_in(q_short, q_short)


class TestEquivalence:
    def test_redundant_atom(self):
        q1 = parse_query("Q() :- E(x, y), E(x, z)")
        q2 = parse_query("Q() :- E(x, y)")
        assert are_equivalent(q1, q2)

    def test_cycle_lengths_not_equivalent(self):
        c3 = parse_query("Q() :- E(x, y), E(y, z), E(z, x)")
        c6 = parse_query(
            "Q() :- E(a, b), E(b, c), E(c, d), E(d, e), E(e, f), E(f, a)"
        )
        assert is_contained_in(c6, c3) is False
        assert is_contained_in(c3, c6)
        assert not are_equivalent(c3, c6)


class TestMinimize:
    def test_redundant_atom_removed(self):
        q = parse_query("Q() :- E(x, y), E(x, z)")
        m = minimize(q)
        assert m.num_atoms == 1
        assert are_equivalent(q, m)

    def test_minimal_query_untouched(self):
        q = parse_query("Q() :- E(x, y), E(y, z), E(z, x)")
        assert minimize(q).num_atoms == 3
        assert is_minimal(q)

    def test_free_variables_block_minimization(self):
        q_bool = parse_query("Q() :- E(x, y), E(z, y)")
        assert minimize(q_bool).num_atoms == 1
        q_free = parse_query("Q(x, z) :- E(x, y), E(z, y)")
        assert minimize(q_free).num_atoms == 2
        assert is_minimal(q_free)

    def test_minimization_example_chandra_merlin(self):
        # Classic: a 4-cycle traversed in both directions minimizes to K2.
        q = parse_query("Q() :- E(x, y), E(y, x), E(y, z), E(z, y)")
        m = minimize(q)
        assert m.num_atoms == 2
        assert are_equivalent(q, m)

    def test_minimized_head_preserved(self):
        q = parse_query("Q(x) :- E(x, y), E(x, z)")
        m = minimize(q)
        assert len(m.head) == 1
        assert are_equivalent(q, m)
