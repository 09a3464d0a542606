"""Tests for the W/S gadgets and the φ reduction scaffolding (appendix)."""

import itertools

import networkx as nx
import pytest

from repro.graphs import digraph_hom_exists, height, is_balanced, levels
from repro.graphs.appendix_reduction import (
    phi,
    phi_tilde,
    s_gadget,
    s_n_k,
    w_path,
    w_path_marked,
)
from repro.homomorphism import is_core


class TestWPaths:
    def test_w_n_height_4(self):
        for n in (1, 2, 5):
            g = w_path(n).structure
            assert is_balanced(g)
            assert height(g) == 4

    def test_w_n_k_height_4(self):
        g = w_path_marked(5, 2)
        assert is_balanced(g)
        assert height(g) == 4

    def test_marked_node_is_a_valley(self):
        # The z-edge enters a level-2 valley node (Figure 21's x_k row).
        for n, k in [(3, 1), (3, 2), (3, 3)]:
            g = w_path_marked(n, k, prefix="w")
            lvl = levels(g)
            target = f"w{2 + 2 * k}"
            assert lvl[target] == 2
            z_nodes = [u for u, v in g.tuples("E") if v == target and u.startswith("w_z")]
            assert len(z_nodes) == 1

    def test_claim_8_16_cores(self):
        for k in (1, 2, 3):
            assert is_core(w_path_marked(3, k))

    def test_claim_8_16_incomparable(self):
        n = 4
        marked = {k: w_path_marked(n, k) for k in range(1, n + 1)}
        for i, j in itertools.permutations(marked, 2):
            assert not digraph_hom_exists(marked[i], marked[j]), (i, j)

    def test_validation(self):
        with pytest.raises(ValueError):
            w_path(0)
        with pytest.raises(ValueError):
            w_path_marked(3, 4)


class TestSGadget:
    def test_s_contains_p4_backbone(self):
        g, names = s_gadget()
        # There is a directed path of length 4 from z' to z.
        digraph = nx.DiGraph(list(g.tuples("E")))
        assert nx.has_path(digraph, names["z_prime"], names["z"])
        assert (
            nx.shortest_path_length(digraph, names["z_prime"], names["z"]) == 4
        )

    def test_s_balanced(self):
        g, _ = s_gadget()
        assert is_balanced(g)

    def test_s_n_k_replaces_backbone(self):
        g, names = s_n_k(3, 2)
        # No sp4-prefixed node survives; W-nodes appear instead.
        assert not any(str(v).startswith("sp4") for v in g.domain)
        assert any(str(v).startswith("wk") for v in g.domain)

    @pytest.mark.slow
    def test_claim_8_17_incomparable_cores(self):
        n = 3
        gadgets = {k: s_n_k(n, k, tag=f"_{k}")[0] for k in range(1, n + 1)}
        for k, g in gadgets.items():
            assert is_core(g), k
        for i, j in itertools.permutations(gadgets, 2):
            assert not digraph_hom_exists(gadgets[i], gadgets[j]), (i, j)


class TestPhiScaffolding:
    def test_phi_size_is_linear_in_edges(self):
        sizes = {}
        for m in (1, 2):
            graph = nx.path_graph(m + 1)
            structure, _ = phi(graph)
            sizes[m] = structure.total_tuples
        per_edge = sizes[2] - sizes[1]
        assert per_edge > 0
        assert sizes[1] > per_edge  # vertex gadgets contribute too

    def test_phi_vertices_present(self):
        structure, names = phi(nx.path_graph(2))
        assert "v0" in structure.domain
        for vertex_node in names["vertices"].values():
            assert vertex_node in structure.domain

    def test_phi_balanced(self):
        structure, _ = phi(nx.path_graph(2))
        assert is_balanced(structure)
        assert height(structure) == 25

    def test_phi_tilde_hangs_one_s_n_k_per_vertex(self):
        # Proposition 8.18: φ̃(G) is φ(G) plus one S_n^k per vertex, glued
        # at the gadget's z onto the k-th vertex node.
        graph = nx.complete_graph(3)
        base, names = phi(graph)
        structure, tilde_names = phi_tilde(graph)
        assert tilde_names == names
        assert base.tuples("E") <= structure.tuples("E")
        n = len(names["vertices"])
        gadget_edges = sum(
            len(s_n_k(n, k, tag=f"_s{k}")[0].tuples("E")) for k in range(1, n + 1)
        )
        assert len(structure.tuples("E")) == len(base.tuples("E")) + gadget_edges
        assert is_balanced(structure)


class TestReductionEndToEnd:
    """Claim 4.13's two directions on tiny instances."""

    @pytest.mark.slow
    def test_single_edge_maps_into_z(self):
        # A single edge is 2-colorable, so φ maps into the proper subgraph Z
        # (choose two distinct colors among {t1, t2, t3}).
        from repro.graphs.appendix_qstar import target_tree
        from repro.graphs.balanced import digraph_homomorphism

        structure, names = phi(nx.path_graph(2))
        z = target_tree(arms=(1, 2, 3))
        hom = digraph_homomorphism(structure, z.structure)
        assert hom is not None
        u, w = (names["vertices"][n] for n in (0, 1))
        assert hom[u] != hom[w]

    @pytest.mark.slow
    def test_triangle_4_colorable_but_3_colorable(self):
        # K3 is 3-colorable: φ(K3) maps into Z — so T is NOT an exact image.
        from repro.graphs.appendix_qstar import target_tree
        from repro.graphs.balanced import digraph_homomorphism

        structure, _ = phi(nx.complete_graph(3))
        z = target_tree(arms=(1, 2, 3))
        assert digraph_homomorphism(structure, z.structure) is not None

    @pytest.mark.slow
    def test_k4_requires_all_four_colors(self):
        # K4 is 4- but not 3-colorable: φ(K4) maps into T but not into Z.
        from repro.graphs.appendix_qstar import target_tree
        from repro.graphs.balanced import digraph_homomorphism

        structure, names = phi(nx.complete_graph(4))
        tree = target_tree()
        hom = digraph_homomorphism(structure, tree.structure)
        assert hom is not None
        colors = {hom[names["vertices"][v]] for v in range(4)}
        assert colors == set(tree.tips.values())
        z = target_tree(arms=(1, 2, 3))
        assert digraph_homomorphism(structure, z.structure) is None
