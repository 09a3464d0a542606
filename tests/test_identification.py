"""Tests for the identification (DP) decision procedure."""

import pytest

from repro.cq import (
    ConjunctiveQuery,
    Structure,
    Tableau,
    loop_query,
    parse_query,
    path_query,
    trivial_bipartite_query,
)
from repro.core import (
    HTW1,
    TW2,
    ApproximationConfig,
    TreewidthClass,
    better_witness,
    is_approximation,
    is_exact_homomorphism_target,
)
from repro.homomorphism.signatures import canonical_key
from repro.testing import reference
from repro.workloads import cycle_with_chords, random_graph_query

TW1 = TreewidthClass(1)


class TestIsApproximation:
    def test_trivial_loop_for_triangle(self):
        triangle = parse_query("Q() :- E(x, y), E(y, z), E(z, x)")
        assert is_approximation(triangle, loop_query(), TW1)

    def test_non_member_rejected(self):
        triangle = parse_query("Q() :- E(x, y), E(y, z), E(z, x)")
        assert not is_approximation(triangle, triangle, TW1)

    def test_non_contained_rejected(self):
        triangle = parse_query("Q() :- E(x, y), E(y, z), E(z, x)")
        # A single edge is acyclic but does NOT imply a triangle.
        assert not is_approximation(triangle, parse_query("Q() :- E(x, y)"), TW1)

    def test_improvable_candidate_rejected(self):
        # P5 ⊆ Q2 (the level map sends T_Q2 into a path), but P4 sits
        # strictly between: P5 ⊂ P4 ⊆ Q2, so P5 is not an approximation.
        from repro.graphs.gadgets import intro_q2
        from repro.cq import is_contained_in

        assert is_contained_in(path_query(5), intro_q2())
        assert not is_approximation(intro_q2(), path_query(5), TW1)
        witness = better_witness(intro_q2(), path_query(5), TW1)
        assert witness is not None

    def test_witness_none_for_real_approximation(self):
        from repro.graphs.gadgets import intro_q2

        assert better_witness(intro_q2(), path_query(4), TW1) is None

    def test_exact_limit_guard(self):
        big = parse_query(
            "Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,f), E(f,g), E(g,h), E(h,a)"
        )
        with pytest.raises(ValueError):
            is_approximation(big, loop_query(), TW1, ApproximationConfig(exact_limit=4))


class TestExactHomomorphism:
    def test_exact_hom_to_core_image(self):
        # C6 maps onto C3 surjectively: no proper substructure of C3 works.
        c6 = Tableau(Structure({"E": [(i, (i + 1) % 6) for i in range(6)]}))
        c3 = Tableau(Structure({"E": [(10, 11), (11, 12), (12, 10)]}))
        assert is_exact_homomorphism_target(c6, c3)

    def test_not_exact_when_subtarget_suffices(self):
        # An edge maps into a path of length 2 without using all of it.
        edge = Tableau(Structure({"E": [(0, 1)]}))
        p2 = Tableau(Structure({"E": [(10, 11), (11, 12)]}))
        assert not is_exact_homomorphism_target(edge, p2)

    def test_no_hom_at_all(self):
        c3 = Tableau(Structure({"E": [(0, 1), (1, 2), (2, 0)]}))
        p2 = Tableau(Structure({"E": [(10, 11), (11, 12)]}))
        assert not is_exact_homomorphism_target(c3, p2)


class TestDigraphDecisionProblem:
    def test_graph_acyclic_approximation_instances(self):
        from repro.core import is_acyclic_digraph_approximation
        from repro.graphs import digraph, single_loop

        triangle = digraph([(0, 1), (1, 2), (2, 0)])
        assert is_acyclic_digraph_approximation(triangle, single_loop())
        # An oriented path is not an approximation of the triangle (not even
        # contained: the triangle does not map into it).
        path = digraph([(5, 6), (6, 7)])
        assert not is_acyclic_digraph_approximation(triangle, path)

    def test_digraph_approximations_of_triangle(self):
        from repro.core import (
            acyclic_digraph_approximation,
            all_acyclic_digraph_approximations,
        )
        from repro.graphs import digraph, has_loop

        triangle = digraph([(0, 1), (1, 2), (2, 0)])
        results = all_acyclic_digraph_approximations(triangle)
        assert len(results) == 1
        assert has_loop(results[0])
        single = acyclic_digraph_approximation(triangle)
        assert has_loop(single)

    def test_count_cores(self):
        from repro.core import count_acyclic_approximation_cores
        from repro.graphs import digraph

        triangle = digraph([(0, 1), (1, 2), (2, 0)])
        assert count_acyclic_approximation_cores(triangle) == 1


# ------------------------------------------------ against the definitions

def _query(structure) -> ConjunctiveQuery:
    """A reference ``(n, facts, head)`` structure as a CQ."""
    _, facts, head = structure
    relations: dict = {}
    for name, row in facts:
        relations.setdefault(name, []).append(row)
    return ConjunctiveQuery.from_tableau(Tableau(Structure(relations), head), prefix="c")


#: Seeded CQs with at most six variables, some with a head.
SEEDED = [
    random_graph_query(5, 6, seed=1),
    random_graph_query(5, 7, seed=2, head_size=1),
    random_graph_query(6, 7, seed=3),
    random_graph_query(6, 8, seed=4, head_size=2),
]


class TestAgainstTheDefinitions:
    """Corollary 4.3: ``Q'`` is a C-approximation of ``Q`` iff ``Q' ∈ C``
    and ``Q'`` is hom-equivalent to a member of the →-minimal frontier of
    the class-C quotients of ``T_Q``, computed here by
    :mod:`repro.testing.reference`."""

    @pytest.mark.parametrize("cls", [TW1, TW2], ids=["TW1", "TW2"])
    @pytest.mark.parametrize("query", SEEDED, ids=range(len(SEEDED)))
    def test_is_approximation_iff_equivalent_to_a_frontier_member(self, query, cls):
        tableau = query.tableau()
        base = reference.structure_of(tableau)
        frontier = reference.reference_frontier(tableau, cls.name)
        # Every quotient of T_Q, one per isomorphism class, and for a
        # head-free query a few that are not quotients.
        by_class = {}
        for code in reference.partitions(base[0]):
            candidate = _query(reference.quotient(base, code))
            tab = candidate.tableau()
            key = canonical_key(tab.structure, tab.distinguished)
            by_class.setdefault(key, candidate)
        candidates = list(by_class.values())
        if not base[2]:
            candidates += [path_query(2), path_query(3)]
            candidates += [loop_query(), trivial_bipartite_query()]
        for candidate in candidates:
            structure = reference.structure_of(candidate.tableau())
            in_class = reference.member(cls.name, structure)
            expected = in_class and any(
                reference.maps_into(m, structure) and reference.maps_into(structure, m)
                for m in frontier
            )
            assert is_approximation(query, candidate, cls) == expected, candidate
            if not in_class:
                continue
            witness = better_witness(query, candidate, cls)
            if witness is not None:
                w = reference.structure_of(witness.tableau())
                assert reference.member(cls.name, w)
                assert reference.maps_into(base, w)
                assert reference.maps_into(w, structure)
                assert not reference.maps_into(structure, w)


#: ``better_witness`` and ``is_approximation`` answers on cycles with
#: chords, pinned as query text.
CHORDED = {
    (3, "TW1", "loop"): (None, True),
    (3, "TW1", "K2"): (None, False),
    (3, "TW2", "loop"): ("Q() :- E(x0, x1), E(x1, x2), E(x2, x0)", False),
    (3, "TW2", "K2"): (None, False),
    (4, "TW1", "loop"): ("Q() :- E(x0, x1), E(x1, x0)", False),
    (4, "TW1", "K2"): (None, True),
    (4, "TW2", "loop"): ("Q() :- E(x0, x1), E(x1, x0)", False),
    (4, "TW2", "K2"): (
        "Q() :- E(x0, x1), E(x1, x2), E(x2, x3), E(x3, x0)",
        False,
    ),
    (5, "TW1", "loop"): (None, True),
    (5, "TW1", "K2"): (None, False),
    (5, "TW2", "loop"): (
        "Q() :- E(x0, x1), E(x1, x0), E(x1, x4), E(x4, x0)",
        False,
    ),
    (5, "TW2", "K2"): (None, False),
    (6, "TW1", "loop"): ("Q() :- E(x0, x1), E(x1, x0)", False),
    (6, "TW1", "K2"): (None, True),
    (6, "TW2", "loop"): ("Q() :- E(x0, x1), E(x1, x0)", False),
    (6, "TW2", "K2"): (
        "Q() :- E(x0, x1), E(x1, x2), E(x2, x3), E(x3, x4), E(x4, x5), E(x5, x0)",
        False,
    ),
    (7, "TW1", "loop"): (None, True),
    (7, "TW1", "K2"): (None, False),
    (7, "TW2", "loop"): (
        "Q() :- E(x0, x1), E(x1, x0), E(x1, x6), E(x6, x0)",
        False,
    ),
    (7, "TW2", "K2"): (None, False),
    (8, "TW1", "loop"): ("Q() :- E(x0, x1), E(x1, x0)", False),
    (8, "TW1", "K2"): (None, True),
    (8, "TW2", "loop"): ("Q() :- E(x0, x1), E(x1, x0)", False),
    (8, "TW2", "K2"): (
        "Q() :- E(x0, x1), E(x1, x2), E(x2, x3), E(x3, x0)",
        False,
    ),
}


class TestPinnedAnswers:
    @pytest.mark.parametrize("case", sorted(CHORDED), ids=str)
    def test_chorded_cycles(self, case):
        n, class_name, candidate_name = case
        cls = {"TW1": TW1, "TW2": TW2}[class_name]
        candidate = {"loop": loop_query, "K2": trivial_bipartite_query}[
            candidate_name
        ]()
        query = cycle_with_chords(n)
        expected_witness, expected_answer = CHORDED[case]
        witness = better_witness(query, candidate, cls)
        assert (None if witness is None else str(witness)) == expected_witness
        assert is_approximation(query, candidate, cls) is expected_answer

    @pytest.mark.parametrize("fresh", [True, False])
    def test_extension_atom_witness(self, fresh):
        # The first witness in stream order is an extended candidate: the
        # quotient x2 = x1, x4 = x3 plus the atom R(x1, x3, x5).
        query = parse_query("Q() :- R(x1, x2, x3), R(x3, x4, x5), R(x5, x6, x1)")
        candidate = parse_query(
            "Q() :- R(x1, x1, x3), R(x1, x3, x5), R(x3, x3, x5), R(x5, x1, x1)"
        )
        witness = better_witness(
            query, candidate, HTW1, ApproximationConfig(allow_fresh=fresh)
        )
        assert str(witness) == (
            "Q() :- R(x1, x1, x3), R(x1, x3, x5), R(x3, x3, x5), R(x5, x6, x1)"
        )
        assert not is_approximation(
            query, candidate, HTW1, ApproximationConfig(allow_fresh=fresh)
        )
