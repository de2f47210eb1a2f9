"""Tests for the post-optimization sweep."""

import numpy as np
import pytest

from repro.core.algorithms.bipartite_decomposition import bipartite_decomposition
from repro.core.algorithms.greedy import greedy_line_by_line
from repro.core.algorithms.post_opt import post_optimize
from repro.core.orderings import clique_order
from repro.core.problem import IVCInstance
from repro.stencil.generic import path_graph
from tests.conftest import random_2d_instances, random_3d_instances


class TestRecolorOrder:
    def test_is_permutation(self, small_2d, small_3d):
        for inst in (small_2d, small_3d):
            coloring = bipartite_decomposition(inst)
            order = clique_order(inst, coloring.starts)
            assert sorted(order.tolist()) == list(range(inst.num_vertices))

    def test_heaviest_block_first(self):
        grid = np.zeros((2, 4), dtype=int)
        grid[:, 2:] = 50  # rightmost block is by far the heaviest
        inst = IVCInstance.from_grid_2d(grid)
        coloring = bipartite_decomposition(inst)
        order = clique_order(inst, coloring.starts)
        heavy = set(inst.geometry.vertex_id([0, 0, 1, 1], [2, 3, 2, 3]).tolist())
        assert set(order[:4].tolist()) == heavy

    def test_within_block_sorted_by_start(self):
        inst = IVCInstance.from_grid_2d([[3, 3], [3, 3]])
        starts = np.array([9, 0, 3, 6])
        order = clique_order(inst, starts)
        assert starts[order].tolist() == [0, 3, 6, 9]

    def test_requires_geometry(self):
        inst = IVCInstance.from_graph(path_graph(2), [1, 1])
        with pytest.raises(ValueError, match="geometry"):
            clique_order(inst, np.zeros(2, dtype=np.int64))

    def test_thin_grid_identity(self):
        inst = IVCInstance.from_grid_2d(np.array([[1, 2, 3]]))
        order = clique_order(inst, np.zeros(3, dtype=np.int64))
        assert sorted(order.tolist()) == [0, 1, 2]


class TestPostOptimize:
    def test_never_increases_maxcolor(self):
        for inst in random_2d_instances() + random_3d_instances():
            base = greedy_line_by_line(inst)
            improved = post_optimize(base)
            assert improved.is_valid()
            assert improved.maxcolor <= base.maxcolor

    def test_label_suffix(self, small_2d):
        base = greedy_line_by_line(small_2d)
        assert post_optimize(base).algorithm == "GLL+P"
        assert post_optimize(base, suffix="!").algorithm == "GLL!"

    def test_improves_wasteful_coloring(self):
        inst = IVCInstance.from_grid_2d([[2, 2], [2, 2]])
        from repro.core.coloring import Coloring

        wasteful = Coloring(
            instance=inst, starts=np.array([0, 10, 20, 30]), algorithm="waste"
        )
        improved = post_optimize(wasteful)
        assert improved.maxcolor == 8  # compacted to the clique optimum
