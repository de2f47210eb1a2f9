"""Tests for vertex orderings."""

import numpy as np
import pytest

from repro.core.orderings import (
    identity_order,
    largest_first_order,
    line_by_line_order,
    random_order,
    zorder_order,
)
from repro.core.problem import IVCInstance
from repro.stencil.generic import path_graph


class TestOrders:
    def test_identity(self):
        assert identity_order(4).tolist() == [0, 1, 2, 3]

    def test_line_by_line_permutation(self, small_2d, small_3d):
        for inst in (small_2d, small_3d):
            order = line_by_line_order(inst)
            assert sorted(order.tolist()) == list(range(inst.num_vertices))

    def test_line_by_line_generic_falls_back(self):
        inst = IVCInstance.from_graph(path_graph(4), [1, 1, 1, 1])
        assert line_by_line_order(inst).tolist() == [0, 1, 2, 3]

    def test_zorder_permutation(self, small_2d, small_3d):
        for inst in (small_2d, small_3d):
            order = zorder_order(inst)
            assert sorted(order.tolist()) == list(range(inst.num_vertices))

    def test_zorder_computed_once_per_shape_and_read_only(self):
        # Instances of one shape share a geometry, so they share the order;
        # a caller writing into it would corrupt every later GZO call.
        for shape in ((5, 7), (3, 4, 2)):
            first = zorder_order(IVCInstance.from_grid(np.ones(shape, dtype=np.int64)))
            again = zorder_order(IVCInstance.from_grid(np.full(shape, 3, dtype=np.int64)))
            assert again is first
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0] = first[1]

    def test_zorder_requires_geometry(self):
        inst = IVCInstance.from_graph(path_graph(3), [1, 1, 1])
        with pytest.raises(ValueError, match="geometry"):
            zorder_order(inst)

    def test_largest_first_sorted(self, small_2d):
        order = largest_first_order(small_2d)
        w = small_2d.weights[order]
        assert np.all(w[:-1] >= w[1:])

    def test_largest_first_stable_ties(self):
        inst = IVCInstance.from_grid_2d([[5, 5], [5, 9]])
        order = largest_first_order(inst)
        assert order.tolist() == [3, 0, 1, 2]

    @pytest.mark.parametrize("top", [0, 2**15 - 1, 2**15, 2**40])
    @pytest.mark.parametrize("shape", [(9, 11), (5, 4, 6)])
    def test_largest_first_matches_a_stable_argsort(self, top, shape):
        # Weights up to 2**15 - 1 are sorted as int16, heavier ones as
        # int64; both give the stable argsort's permutation, ties by id.
        rng = np.random.default_rng(top % 97 + len(shape))
        values = np.array([0, 1, top // 2, max(top - 1, 0), top], dtype=np.int64)
        weights = rng.choice(values, size=shape)
        order = largest_first_order(IVCInstance.from_grid(weights))
        assert order.dtype == np.int64
        assert order.tolist() == np.argsort(-weights.ravel(), kind="stable").tolist()

    def test_random_order_deterministic_per_seed(self, small_2d):
        a = random_order(small_2d, seed=3)
        b = random_order(small_2d, seed=3)
        c = random_order(small_2d, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert sorted(a.tolist()) == list(range(small_2d.num_vertices))
