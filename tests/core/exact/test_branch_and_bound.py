"""Tests for the CSP decision search and binary-search optimizer."""

import numpy as np
import pytest

from repro.core.bounds import lower_bound
from repro.core.exact.branch_and_bound import (
    SearchBudgetExceeded,
    decide_coloring,
    solve_exact,
)
from repro.core.problem import IVCInstance
from repro.stencil.generic import clique_graph, cycle_graph, path_graph
from tests.conftest import random_2d_instances


class TestDecide:
    def test_clique_threshold(self):
        inst = IVCInstance.from_graph(clique_graph(3), [2, 3, 4])
        assert decide_coloring(inst, 8) is None
        found = decide_coloring(inst, 9)
        assert found is not None
        assert found.maxcolor <= 9

    def test_monotone_in_k(self):
        inst = IVCInstance.from_graph(cycle_graph(5), [3, 1, 4, 1, 5])
        feasible = [decide_coloring(inst, k) is not None for k in range(6, 14)]
        # Once feasible, always feasible.
        assert feasible == sorted(feasible)

    def test_zero_weights_trivial(self):
        inst = IVCInstance.from_grid_2d(np.zeros((3, 3), dtype=int))
        assert decide_coloring(inst, 0) is not None

    def test_single_heavy_vertex_infeasible(self):
        inst = IVCInstance.from_graph(path_graph(2), [5, 1])
        assert decide_coloring(inst, 4) is None
        assert decide_coloring(inst, 6) is not None

    def test_negative_k_rejected(self):
        inst = IVCInstance.from_graph(path_graph(2), [1, 1])
        with pytest.raises(ValueError):
            decide_coloring(inst, -1)

    def test_budget_exceeded_raises(self):
        inst = random_2d_instances(count=1, seed=2, max_dim=7, max_w=10)[0]
        k = lower_bound(inst)  # probably tight, hard to decide
        with pytest.raises(SearchBudgetExceeded):
            decide_coloring(inst, k, node_budget=3)

    def test_returned_coloring_validates(self):
        inst = IVCInstance.from_graph(cycle_graph(7), [2, 4, 2, 4, 2, 4, 2])
        c = decide_coloring(inst, 10)
        assert c is not None and c.is_valid()


class TestSolveExact:
    def test_odd_cycle_matches_theorem(self):
        from repro.core.bounds import odd_cycle_optimum

        w = [3, 5, 2, 6, 4]
        inst = IVCInstance.from_graph(cycle_graph(5), w)
        assert solve_exact(inst).maxcolor == odd_cycle_optimum(w)

    def test_nine_cycle_proved_within_a_small_budget(self):
        # Proving k = 36 infeasible here took over 2M nodes before the
        # search kept to left-justified colorings; it now takes under 1000.
        from repro.core.bounds import odd_cycle_optimum

        w = [11, 13, 13, 13, 13, 12, 12, 13, 13]
        inst = IVCInstance.from_graph(cycle_graph(9), w)
        assert decide_coloring(inst, 36, node_budget=1_000) is None
        assert solve_exact(inst, node_budget=1_000).maxcolor == odd_cycle_optimum(w)

    def test_matches_milp_on_random_2d(self):
        from repro.core.exact.milp import solve_milp

        for inst in random_2d_instances(count=4, max_dim=5, max_w=6):
            bnb = solve_exact(inst)
            milp = solve_milp(inst, time_limit=30.0)
            assert milp.proven_optimal
            assert bnb.maxcolor == milp.maxcolor
            assert bnb.is_valid()

    def test_at_least_lower_bound(self):
        for inst in random_2d_instances(count=3, max_dim=4, max_w=8):
            assert solve_exact(inst).maxcolor >= lower_bound(inst)

    def test_empty_instance(self):
        inst = IVCInstance.from_edges(0, [], [])
        assert solve_exact(inst).maxcolor == 0

    def test_figure3_value(self):
        from repro.data.paper_instances import (
            FIGURE3_BOUNDS,
            FIGURE3_OPTIMUM,
            figure3_two_cycles,
        )

        inst = figure3_two_cycles()
        opt = solve_exact(inst)
        assert opt.maxcolor == FIGURE3_OPTIMUM > FIGURE3_BOUNDS
