"""Tests for the first-fit engine."""

import numpy as np
import pytest

from repro.core.greedy_engine import (
    UNCOLORED,
    first_fit_start,
    first_fit_start_naive,
    greedy_color,
    greedy_recolor_pass,
)
from repro.core.problem import IVCInstance
from repro.stencil.generic import clique_graph, cycle_graph, path_graph


class TestFirstFit:
    def test_no_neighbors(self):
        assert first_fit_start([], [], 3) == 0

    def test_zero_weight_fits_anywhere(self):
        assert first_fit_start([0], [100], 0) == 0

    def test_gap_before_first(self):
        assert first_fit_start([5], [8], 3) == 0
        assert first_fit_start([5], [8], 5) == 0

    def test_gap_too_small_before_first(self):
        assert first_fit_start([2], [5], 3) == 5

    def test_fits_in_middle_gap(self):
        assert first_fit_start([0, 7], [3, 9], 4) == 3

    def test_middle_gap_too_small(self):
        assert first_fit_start([0, 5], [3, 9], 4) == 9

    def test_unsorted_input(self):
        assert first_fit_start([7, 0], [9, 3], 4) == 3

    def test_overlapping_neighbor_intervals(self):
        # Neighbors may overlap each other (they need not be mutually adjacent).
        assert first_fit_start([0, 2], [5, 8], 2) == 8

    def test_duplicate_intervals(self):
        assert first_fit_start([0, 0], [4, 4], 1) == 4

    def test_exact_fit(self):
        assert first_fit_start([0, 5], [3, 9], 2) == 3

    @pytest.mark.parametrize("seed", range(10))
    def test_naive_matches_sorted(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 8))
        starts = rng.integers(0, 20, size=n).tolist()
        ends = [s + int(rng.integers(1, 6)) for s in starts]
        w = int(rng.integers(0, 5))
        assert first_fit_start(starts, ends, w) == first_fit_start_naive(starts, ends, w)

    def test_result_is_feasible_and_minimal(self):
        starts, ends = [2, 8, 14], [5, 11, 16]
        w = 3
        s = first_fit_start(starts, ends, w)
        assert all(s + w <= a or b <= s for a, b in zip(starts, ends))
        # Minimality: no smaller start works.
        for cand in range(s):
            if all(cand + w <= a or b <= cand for a, b in zip(starts, ends)):
                pytest.fail(f"{cand} < {s} also fits")


class TestGreedyColor:
    def test_clique_stacks(self):
        inst = IVCInstance.from_graph(clique_graph(4), [3, 1, 2, 4])
        c = greedy_color(inst, np.arange(4))
        assert c.is_valid()
        assert c.maxcolor == 10  # greedy on a clique is optimal

    def test_chain_order_dependence(self):
        inst = IVCInstance.from_graph(path_graph(3), [5, 5, 5])
        c = greedy_color(inst, np.array([0, 2, 1]))
        assert c.is_valid()
        assert c.starts.tolist() == [0, 5, 0]

    def test_requires_permutation(self):
        inst = IVCInstance.from_graph(path_graph(3), [1, 1, 1])
        with pytest.raises(ValueError, match="permutation"):
            greedy_color(inst, np.array([0, 0, 1]))
        with pytest.raises(ValueError, match="permutation"):
            greedy_color(inst, np.array([0, 1]))

    def test_zero_weight_vertices_get_zero(self):
        inst = IVCInstance.from_graph(path_graph(3), [4, 0, 4])
        c = greedy_color(inst, np.arange(3))
        assert c.starts[1] == 0
        assert c.is_valid()

    def test_validity_on_random_2d(self, small_2d):
        rng = np.random.default_rng(0)
        for _ in range(5):
            order = rng.permutation(small_2d.num_vertices)
            assert greedy_color(small_2d, order).is_valid()

    def test_validity_on_random_3d(self, small_3d):
        rng = np.random.default_rng(0)
        for _ in range(5):
            order = rng.permutation(small_3d.num_vertices)
            assert greedy_color(small_3d, order).is_valid()

    def test_deterministic(self, small_2d):
        order = np.arange(small_2d.num_vertices)
        a = greedy_color(small_2d, order)
        b = greedy_color(small_2d, order)
        assert np.array_equal(a.starts, b.starts)

    def test_algorithm_label(self, small_2d):
        c = greedy_color(small_2d, np.arange(small_2d.num_vertices), algorithm="lbl")
        assert c.algorithm == "lbl"


class TestRecolorPass:
    def test_never_increases_starts(self, small_2d):
        base = greedy_color(small_2d, np.arange(small_2d.num_vertices))
        shifted = base.starts + 10  # still valid, just wasteful
        out = greedy_recolor_pass(small_2d, shifted)
        assert np.all(out <= shifted)
        from repro.core.coloring import Coloring

        assert Coloring(instance=small_2d, starts=out).is_valid()

    def test_fixed_point_of_tight_coloring(self):
        inst = IVCInstance.from_graph(clique_graph(3), [2, 2, 2])
        starts = np.array([0, 2, 4], dtype=np.int64)
        out = greedy_recolor_pass(inst, starts)
        assert np.array_equal(out, starts)

    def test_compacts_gaps(self):
        inst = IVCInstance.from_graph(path_graph(2), [2, 2])
        out = greedy_recolor_pass(inst, np.array([0, 50]))
        assert out.tolist() == [0, 2]

    def test_requires_full_coloring(self, small_2d):
        starts = np.full(small_2d.num_vertices, UNCOLORED, dtype=np.int64)
        with pytest.raises(ValueError, match="fully colored"):
            greedy_recolor_pass(small_2d, starts)

    def test_custom_order(self):
        inst = IVCInstance.from_graph(cycle_graph(4), [1, 1, 1, 1])
        starts = np.array([0, 1, 0, 1], dtype=np.int64)
        out = greedy_recolor_pass(inst, starts, order=np.array([3, 2, 1, 0]))
        from repro.core.coloring import Coloring

        assert Coloring(instance=inst, starts=out).is_valid()
