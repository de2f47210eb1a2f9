"""Tests for Bipartite Decomposition (BD) and its approximation guarantees."""

import numpy as np
import pytest

from repro.core.algorithms.bipartite_decomposition import (
    bd_with_bound,
    bipartite_decomposition,
    bipartite_decomposition_post,
    chain_color,
)
from repro.core.bounds import lower_bound
from repro.core.problem import IVCInstance
from repro.stencil.generic import path_graph
from tests.conftest import random_2d_instances, random_3d_instances


class TestChainColor:
    def test_empty(self):
        starts, rc = chain_color(np.array([], dtype=int))
        assert len(starts) == 0 and rc == 0

    def test_single(self):
        starts, rc = chain_color(np.array([7]))
        assert starts.tolist() == [0] and rc == 7

    def test_pair(self):
        starts, rc = chain_color(np.array([3, 5]))
        assert rc == 8
        assert starts.tolist() == [0, 3]

    def test_alternation_valid(self):
        w = np.array([4, 2, 7, 1, 3])
        starts, rc = chain_color(w)
        ends = starts + w
        for a in range(4):
            assert ends[a] <= starts[a + 1] or ends[a + 1] <= starts[a]
        assert rc == 9  # 2 + 7

    def test_rc_is_chain_optimum(self):
        # The chain optimum equals the max consecutive pair (bipartite bound).
        w = np.array([5, 5, 5, 5])
        _, rc = chain_color(w)
        assert rc == 10

    def test_zero_weights(self):
        starts, rc = chain_color(np.array([0, 0, 0]))
        assert rc == 0
        assert starts.tolist() == [0, 0, 0]

    def test_rc_at_least_max_weight(self):
        _, rc = chain_color(np.array([9, 0]))
        assert rc == 9


class TestBD2D:
    def test_valid_and_bounded(self):
        for inst in random_2d_instances():
            coloring, rc = bd_with_bound(inst)
            assert coloring.is_valid(), inst.name
            assert coloring.maxcolor <= 2 * rc
            assert coloring.maxcolor >= lower_bound(inst)

    def test_rc_is_lower_bound_2d(self):
        # RC is the optimum of a subgraph, hence a true lower bound.
        from repro.core.exact.milp import solve_milp

        for inst in random_2d_instances(count=3, max_dim=5, max_w=6):
            _, rc = bd_with_bound(inst)
            res = solve_milp(inst, time_limit=30.0)
            assert res.proven_optimal
            assert rc <= res.maxcolor

    def test_two_approximation_certified(self):
        from repro.core.exact.milp import solve_milp

        for inst in random_2d_instances(count=4, max_dim=5, max_w=8):
            coloring = bipartite_decomposition(inst)
            res = solve_milp(inst, time_limit=30.0)
            assert res.proven_optimal
            assert coloring.maxcolor <= 2 * res.maxcolor

    def test_row_banding(self):
        # Even rows use [0, RC); odd rows use [RC, 2RC).
        inst = random_2d_instances(count=1, seed=9)[0]
        coloring, rc = bd_with_bound(inst)
        geo = inst.geometry
        i, j = geo.coords(np.arange(inst.num_vertices))
        ends = coloring.ends
        even = j % 2 == 0
        assert np.all(ends[even] <= rc)
        assert np.all(coloring.starts[~even] >= rc)

    def test_label(self, small_2d):
        assert bipartite_decomposition(small_2d).algorithm == "BD"


class TestBD3D:
    def test_valid_on_random_3d(self):
        for inst in random_3d_instances():
            coloring, lc = bd_with_bound(inst)
            assert coloring.is_valid(), inst.name
            assert coloring.maxcolor <= 2 * lc

    def test_four_approximation_certified(self):
        from repro.core.exact.milp import solve_milp

        for inst in random_3d_instances(count=3, max_dim=3, max_w=6):
            coloring = bipartite_decomposition(inst)
            res = solve_milp(inst, time_limit=60.0)
            assert res.proven_optimal
            assert coloring.maxcolor <= 4 * res.maxcolor

    def test_layer_banding(self):
        inst = random_3d_instances(count=1, seed=4)[0]
        coloring, lc = bd_with_bound(inst)
        geo = inst.geometry
        _i, _j, k = geo.coords(np.arange(inst.num_vertices))
        even = k % 2 == 0
        assert np.all(coloring.ends[even] <= lc)
        assert np.all(coloring.starts[~even] >= lc)


class TestBDBestAxis:
    def test_never_worse_than_bd(self):
        from repro.core.algorithms.bipartite_decomposition import (
            bipartite_decomposition_best_axis,
        )

        for inst in random_2d_instances(count=8):
            best = bipartite_decomposition_best_axis(inst)
            assert best.is_valid()
            assert best.maxcolor <= bipartite_decomposition(inst).maxcolor

    def test_picks_the_better_orientation(self):
        from repro.core.algorithms.bipartite_decomposition import (
            bipartite_decomposition_best_axis,
        )

        # Heavy vertical pair: row-chains along x see the pair split across
        # rows (bad), column-chains see it inside one chain (good).
        grid = np.zeros((2, 4), dtype=int)
        grid[0, 0] = grid[1, 0] = 10
        inst = IVCInstance.from_grid_2d(grid)
        transposed = IVCInstance.from_grid_2d(grid.T)
        direct = bipartite_decomposition(inst).maxcolor
        swapped = bipartite_decomposition(transposed).maxcolor
        best = bipartite_decomposition_best_axis(inst)
        assert best.maxcolor == min(direct, swapped)

    def test_3d_falls_back_to_bd(self, small_3d):
        from repro.core.algorithms.bipartite_decomposition import (
            bipartite_decomposition_best_axis,
        )

        assert (
            bipartite_decomposition_best_axis(small_3d).maxcolor
            == bipartite_decomposition(small_3d).maxcolor
        )

    def test_registered(self, small_2d):
        from repro.core.algorithms.registry import color_with

        c = color_with(small_2d, "BD-ax")
        assert c.is_valid() and c.algorithm == "BD-ax"


class TestBDP:
    def test_never_worse_than_bd(self):
        for inst in random_2d_instances() + random_3d_instances():
            bd = bipartite_decomposition(inst)
            bdp = bipartite_decomposition_post(inst)
            assert bdp.is_valid()
            assert bdp.maxcolor <= bd.maxcolor

    def test_keeps_approximation_guarantee(self):
        for inst in random_2d_instances(count=4):
            _, rc = bd_with_bound(inst)
            assert bipartite_decomposition_post(inst).maxcolor <= 2 * rc

    def test_label(self, small_2d):
        assert bipartite_decomposition_post(small_2d).algorithm == "BDP"

    def test_requires_geometry(self):
        inst = IVCInstance.from_graph(path_graph(3), [1, 1, 1])
        with pytest.raises(ValueError):
            bipartite_decomposition(inst)


class TestNoCSR:
    def test_reference_3d_bd_builds_no_csr(self, monkeypatch):
        # The per-layer instances used to be built over ``layer_grid.csr``.
        from repro.stencil.grid import StencilGrid

        def refuse(self, offsets):
            raise AssertionError(f"{self!r} built a CSR")

        monkeypatch.setattr(StencilGrid, "_build_csr", refuse)
        grid = np.random.default_rng(4).integers(0, 9, size=(4, 5, 3))
        inst = IVCInstance.from_grid_3d(grid)
        coloring, bound = bd_with_bound(inst, fast=False)
        fast, fast_bound = bd_with_bound(inst, fast=True)
        assert np.array_equal(coloring.starts, fast.starts)
        assert bound == fast_bound
        assert coloring.is_valid()
