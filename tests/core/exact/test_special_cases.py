"""Tests for the Section III closed-form optimal colorings."""

import numpy as np
import pytest

from repro.core.bounds import maxpair_bound, odd_cycle_optimum
from repro.core.exact.branch_and_bound import solve_exact
from repro.core.exact.special_cases import (
    color_bipartite,
    color_chain,
    color_clique,
    color_even_cycle,
    color_odd_cycle,
    color_relaxation_5pt,
    color_relaxation_7pt,
    color_star,
)
from repro.core.problem import IVCInstance
from repro.stencil.generic import (
    clique_graph,
    cycle_graph,
    from_edges,
    path_graph,
    star_graph,
)


class TestClique:
    def test_stacks_to_total(self):
        inst = IVCInstance.from_graph(clique_graph(4), [3, 1, 4, 1])
        c = color_clique(inst).check()
        assert c.maxcolor == 9

    def test_single_vertex(self):
        inst = IVCInstance.from_graph(clique_graph(1), [5])
        assert color_clique(inst).maxcolor == 5

    def test_rejects_non_clique(self):
        inst = IVCInstance.from_graph(path_graph(3), [1, 1, 1])
        with pytest.raises(ValueError, match="complete graph"):
            color_clique(inst)

    def test_optimal(self):
        inst = IVCInstance.from_graph(clique_graph(3), [2, 5, 3])
        assert color_clique(inst).maxcolor == solve_exact(inst).maxcolor


class TestBipartite:
    def test_chain_optimal(self):
        inst = IVCInstance.from_graph(path_graph(4), [2, 7, 3, 6])
        c = color_chain(inst).check()
        assert c.maxcolor == maxpair_bound(inst) == 10

    def test_star_optimal(self):
        inst = IVCInstance.from_graph(star_graph(5), [4, 1, 2, 3, 9, 2])
        c = color_star(inst).check()
        assert c.maxcolor == 13  # center 4 + heaviest leaf 9

    def test_even_cycle_optimal(self):
        inst = IVCInstance.from_graph(cycle_graph(6), [5, 2, 8, 1, 6, 3])
        c = color_even_cycle(inst).check()
        assert c.maxcolor == maxpair_bound(inst)

    def test_tree_optimal(self):
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]
        inst = IVCInstance.from_edges(6, edges, [3, 5, 2, 7, 1, 4])
        c = color_bipartite(inst).check()
        assert c.maxcolor == maxpair_bound(inst) == 12

    def test_rejects_odd_cycle(self):
        inst = IVCInstance.from_graph(cycle_graph(5), [1] * 5)
        with pytest.raises(ValueError, match="bipartite"):
            color_bipartite(inst)

    def test_isolated_vertices(self):
        inst = IVCInstance.from_graph(from_edges(3, [(0, 1)]), [2, 3, 9])
        c = color_bipartite(inst).check()
        assert c.maxcolor == 9

    def test_matches_exact_on_random_trees(self):
        import networkx as nx

        rng = np.random.default_rng(0)
        for seed in range(4):
            tree = nx.random_labeled_tree(7, seed=seed)
            inst = IVCInstance.from_edges(
                7, list(tree.edges()), rng.integers(1, 9, size=7)
            )
            assert color_bipartite(inst).maxcolor == solve_exact(inst).maxcolor


class TestOddCycle:
    def test_matches_theorem(self):
        w = [4, 7, 2, 9, 5]
        inst = IVCInstance.from_graph(cycle_graph(5), w)
        c = color_odd_cycle(inst).check()
        assert c.maxcolor == odd_cycle_optimum(w)

    def test_matches_exact_on_randoms(self):
        rng = np.random.default_rng(1)
        for n in (3, 5, 7):
            for _ in range(3):
                w = rng.integers(1, 12, size=n)
                inst = IVCInstance.from_graph(cycle_graph(n), w)
                constructed = color_odd_cycle(inst).check()
                assert constructed.maxcolor == solve_exact(inst).maxcolor
                assert constructed.maxcolor == odd_cycle_optimum(w)

    def test_minchain_rotation_handled(self):
        # Min chain sits across the wrap-around seam.
        w = [2, 9, 9, 9, 2]
        inst = IVCInstance.from_graph(cycle_graph(5), w)
        assert color_odd_cycle(inst).check().maxcolor == odd_cycle_optimum(w)

    def test_rejects_even_cycle(self):
        inst = IVCInstance.from_graph(cycle_graph(4), [1] * 4)
        with pytest.raises(ValueError, match="odd cycle"):
            color_odd_cycle(inst)

    def test_rejects_non_cycle(self):
        inst = IVCInstance.from_graph(clique_graph(5), [1] * 5)
        with pytest.raises(ValueError):
            color_odd_cycle(inst)

    def test_triangle(self):
        inst = IVCInstance.from_graph(cycle_graph(3), [4, 5, 6])
        assert color_odd_cycle(inst).check().maxcolor == 15


class TestRelaxations:
    def test_5pt_valid_and_optimal_for_relaxed_graph(self, small_2d):
        c = color_relaxation_5pt(small_2d)
        assert c.is_valid()  # valid w.r.t. the 5-pt graph it carries
        edges = small_2d.geometry.csr_axis.edges()
        w = small_2d.weights
        expected = max(int(w.max()), int((w[edges[:, 0]] + w[edges[:, 1]]).max()))
        assert c.maxcolor == expected

    def test_5pt_may_violate_9pt(self):
        # The relaxation ignores diagonal conflicts, so diagonally adjacent
        # equal-parity vertices may share colors.
        inst = IVCInstance.from_grid_2d([[5, 0], [0, 5]])
        c = color_relaxation_5pt(inst)
        from repro.core.coloring import Coloring

        nine_pt = Coloring(instance=inst, starts=c.starts)
        assert not nine_pt.is_valid()

    def test_5pt_requires_2d(self, small_3d):
        with pytest.raises(ValueError, match="2DS-IVC"):
            color_relaxation_5pt(small_3d)

    def test_7pt_valid_and_optimal(self, small_3d):
        c = color_relaxation_7pt(small_3d)
        assert c.is_valid()
        edges = small_3d.geometry.csr_axis.edges()
        w = small_3d.weights
        expected = max(int(w.max()), int((w[edges[:, 0]] + w[edges[:, 1]]).max()))
        assert c.maxcolor == expected

    def test_7pt_requires_3d(self, small_2d):
        with pytest.raises(ValueError, match="3DS-IVC"):
            color_relaxation_7pt(small_2d)
