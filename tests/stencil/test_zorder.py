"""Tests for Morton (Z-order) indexing."""

import numpy as np
import pytest

from repro.stencil.zorder import (
    morton_argsort,
    morton_key_2d,
    morton_key_3d,
)


class TestKeys2D:
    def test_origin_is_zero(self):
        assert morton_key_2d(0, 0) == 0

    def test_bit_interleaving(self):
        # key(i, j) interleaves bits: i contributes even bits, j odd bits.
        assert morton_key_2d(1, 0) == 1
        assert morton_key_2d(0, 1) == 2
        assert morton_key_2d(1, 1) == 3
        assert morton_key_2d(2, 0) == 4
        assert morton_key_2d(2, 2) == 12

    def test_vectorized_matches_scalar(self):
        i = np.array([0, 1, 5, 100, 2**20])
        j = np.array([3, 2, 7, 50, 2**19])
        keys = morton_key_2d(i, j)
        for a, b, k in zip(i, j, keys):
            assert morton_key_2d(int(a), int(b)) == k

    def test_injective_on_grid(self):
        i, j = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        keys = morton_key_2d(i.ravel(), j.ravel())
        assert len(np.unique(keys)) == 256

    def test_quadrant_order(self):
        # All of the lower-left 2x2 quadrant precedes the upper-right one.
        ll = morton_key_2d([0, 1, 0, 1], [0, 0, 1, 1])
        ur = morton_key_2d([2, 3, 2, 3], [2, 2, 3, 3])
        assert ll.max() < ur.min()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            morton_key_2d(-1, 0)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            morton_key_2d(2**32, 0)


class TestKeys3D:
    def test_origin_is_zero(self):
        assert morton_key_3d(0, 0, 0) == 0

    def test_axis_bits(self):
        assert morton_key_3d(1, 0, 0) == 1
        assert morton_key_3d(0, 1, 0) == 2
        assert morton_key_3d(0, 0, 1) == 4
        assert morton_key_3d(1, 1, 1) == 7

    def test_injective_on_grid(self):
        i, j, k = np.meshgrid(np.arange(8), np.arange(8), np.arange(8), indexing="ij")
        keys = morton_key_3d(i.ravel(), j.ravel(), k.ravel())
        assert len(np.unique(keys)) == 512

    def test_max_bits(self):
        big = 2**21 - 1
        assert morton_key_3d(big, 0, 0) > 0
        with pytest.raises(ValueError):
            morton_key_3d(2**21, 0, 0)


class TestArgsort:
    def test_2d_is_permutation(self):
        order = morton_argsort((5, 7))
        assert sorted(order.tolist()) == list(range(35))

    def test_3d_is_permutation(self):
        order = morton_argsort((3, 4, 5))
        assert sorted(order.tolist()) == list(range(60))

    def test_2d_first_quad(self):
        # On a 4x4 grid the first four visited cells are the lower 2x2 block.
        order = morton_argsort((4, 4))
        firsts = {(int(v) // 4, int(v) % 4) for v in order[:4]}
        assert firsts == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_non_power_of_two_shapes(self):
        order = morton_argsort((3, 5))
        assert len(order) == 15
        assert order[0] == 0
