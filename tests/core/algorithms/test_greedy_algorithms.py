"""Tests for GLL, GZO, GLF."""

import numpy as np
import pytest

from repro.core.algorithms.greedy import (
    greedy_largest_first,
    greedy_line_by_line,
    greedy_zorder,
)
from repro.core.bounds import lower_bound
from repro.core.problem import IVCInstance
from tests.conftest import random_2d_instances, random_3d_instances

ALL = (greedy_line_by_line, greedy_zorder, greedy_largest_first)


@pytest.mark.parametrize("algorithm", ALL)
class TestCommonProperties:
    def test_valid_on_random_2d(self, algorithm):
        for inst in random_2d_instances():
            c = algorithm(inst)
            assert c.is_valid(), inst.name
            assert c.maxcolor >= lower_bound(inst)

    def test_valid_on_random_3d(self, algorithm):
        for inst in random_3d_instances():
            c = algorithm(inst)
            assert c.is_valid(), inst.name

    def test_deterministic(self, algorithm, small_2d):
        assert np.array_equal(algorithm(small_2d).starts, algorithm(small_2d).starts)

    def test_all_zero_weights(self, algorithm):
        inst = IVCInstance.from_grid_2d(np.zeros((3, 3), dtype=int))
        c = algorithm(inst)
        assert c.maxcolor == 0

    def test_uniform_weights_hit_clique_bound_2x2(self, algorithm):
        inst = IVCInstance.from_grid_2d(np.full((2, 2), 5))
        assert algorithm(inst).maxcolor == 20  # K4, any greedy is optimal


class TestLabels:
    def test_labels(self, small_2d):
        assert greedy_line_by_line(small_2d).algorithm == "GLL"
        assert greedy_zorder(small_2d).algorithm == "GZO"
        assert greedy_largest_first(small_2d).algorithm == "GLF"


class TestGLF:
    def test_heaviest_vertex_starts_at_zero(self, small_2d):
        c = greedy_largest_first(small_2d)
        heaviest = int(np.argmax(small_2d.weights))
        assert c.starts[heaviest] == 0

    def test_single_heavy_among_light(self):
        grid = np.ones((3, 3), dtype=int)
        grid[1, 1] = 100
        inst = IVCInstance.from_grid_2d(grid)
        c = greedy_largest_first(inst)
        assert c.starts[inst.geometry.vertex_id(1, 1)] == 0
        assert c.is_valid()


class TestGLLStructure:
    def test_first_row_matches_chain_greedy(self):
        # GLL colors the first row before anything else, so within it the
        # result equals greedy on a chain.
        grid = np.zeros((4, 2), dtype=int)
        grid[:, 0] = [3, 4, 5, 6]
        grid[:, 1] = 1
        inst = IVCInstance.from_grid_2d(grid)
        c = greedy_line_by_line(inst)
        row = inst.geometry.layer_ids(0)
        # First fit along the chain: [0,3), then [3,7); the 5-wide interval
        # does not fit under [3,7) so it goes to [7,12); the 6-wide one fits
        # at 0 against its single colored neighbor [7,12).
        assert c.starts[row.tolist()].tolist() == [0, 3, 7, 0]
