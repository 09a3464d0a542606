"""Tests for balancedness, levels, heights and the level filter (Lemma 4.5)."""

from repro.cq import Structure
from repro.graphs import (
    digraph,
    digraph_hom_exists,
    digraph_homomorphism,
    directed_path,
    height,
    is_balanced,
    level_candidates,
    levels,
    oriented_path,
    potentials,
)
from repro.graphs.gadgets import example_57_second, intro_q2
from repro.homomorphism import homomorphism_exists


class TestBalanced:
    def test_directed_cycle_unbalanced(self):
        c3 = digraph([(0, 1), (1, 2), (2, 0)])
        assert not is_balanced(c3)
        assert potentials(c3) is None

    def test_balanced_cycle(self):
        # Alternating orientation 0101: net length 0.
        cycle = digraph([(0, 1), (2, 1), (2, 3), (0, 3)])
        assert is_balanced(cycle)

    def test_loop_unbalanced(self):
        assert not is_balanced(digraph([(0, 0)]))

    def test_oriented_paths_balanced(self):
        assert is_balanced(oriented_path("0010110").structure)

    def test_example_57_second_digraph(self):
        # Example 5.7's second digraph is the tableau of the introduction's
        # Q2, which is balanced.
        g = example_57_second()
        assert g == intro_q2().tableau().structure
        assert is_balanced(g)

    def test_balanced_iff_hom_to_directed_path(self):
        # Characterization used in Claim 5.2: G balanced iff G → P_k for some k.
        g = oriented_path("0101").structure
        assert is_balanced(g)
        assert homomorphism_exists(g, directed_path(10).structure)


class TestLevels:
    def test_path_levels(self):
        p = directed_path(3).structure
        assert levels(p) == {"p0": 0, "p1": 1, "p2": 2, "p3": 3}
        assert height(p) == 3

    def test_oriented_path_levels(self):
        # 001: p0 at level 0, p1 at 1, p2 at 2, p3 at 1 (backward edge).
        lvl = levels(oriented_path("001").structure)
        assert lvl == {"p0": 0, "p1": 1, "p2": 2, "p3": 1}

    def test_levels_normalized_per_component(self):
        g = directed_path(2).structure.union(
            directed_path(1, prefix="q").structure
        )
        lvl = levels(g)
        assert lvl["p0"] == 0 and lvl["q0"] == 0
        assert height(g) == 2

    def test_unbalanced_levels_none(self):
        assert levels(digraph([(0, 1), (1, 2), (2, 0)])) is None


class TestLevelFilter:
    def test_equal_height_forces_level_preservation(self):
        # Lemma 4.5: homs between balanced digraphs of equal height preserve
        # levels; the candidate sets reflect that exactly.
        src = oriented_path("01").structure
        dst = oriented_path("0101").structure  # height 1 as well
        src_levels = levels(src)
        dst_levels = levels(dst)
        assert max(src_levels.values()) == max(dst_levels.values())
        candidates = level_candidates(src, dst)
        for node, allowed in candidates.items():
            assert all(dst_levels[w] == src_levels[node] for w in allowed)

    def test_shift_allowed_for_shorter_component(self):
        src = directed_path(1).structure  # height 1
        dst = directed_path(3).structure  # height 3
        candidates = level_candidates(src, dst)
        assert candidates["p0"] == {"p0", "p1", "p2"}

    def test_filter_none_when_unbalanced(self):
        c3 = digraph([(0, 1), (1, 2), (2, 0)])
        assert level_candidates(c3, c3) is None


class TestDigraphHom:
    def test_unbalanced_into_balanced_fast_path(self):
        c3 = digraph([(0, 1), (1, 2), (2, 0)])
        p5 = directed_path(5).structure
        assert not digraph_hom_exists(c3, p5)

    def test_balanced_hom_found(self):
        # The level map sends any balanced digraph of height h onto P_h.
        g = oriented_path("0011").structure
        target = directed_path(2).structure
        assert digraph_hom_exists(g, target)

    def test_level_filter_agrees_with_plain_search(self):
        specs = ["0", "01", "0011", "0101", "00110"]
        for a in specs:
            for b in specs:
                plain = homomorphism_exists(
                    oriented_path(a).structure, oriented_path(b).structure
                )
                filtered = digraph_hom_exists(
                    oriented_path(a).structure, oriented_path(b).structure
                )
                assert plain == filtered, (a, b)

    def test_returns_actual_hom(self):
        g = oriented_path("00").structure
        h = digraph_homomorphism(g, directed_path(2).structure)
        assert h is not None


class TestPaperPathFacts:
    def test_p1_p2_incomparable(self):
        # Proposition 4.4: P1 = 001000 and P2 = 000100 are incomparable.
        from repro.graphs.gadgets import paper_p1, paper_p2

        assert not digraph_hom_exists(paper_p1(), paper_p2())
        assert not digraph_hom_exists(paper_p2(), paper_p1())

    def test_p1_p2_are_cores(self):
        from repro.graphs.gadgets import paper_p1, paper_p2
        from repro.homomorphism import is_core

        assert is_core(paper_p1())
        assert is_core(paper_p2())
