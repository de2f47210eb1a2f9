"""Property tests for Morton (Z-order) indexing against recursive references.

The bit-dilation ("magic numbers") implementation in
:mod:`repro.stencil.zorder` is checked against two pure-Python references:

* a per-coordinate *recursive* bit-interleaver (``key(i, j) = interleave of
  the low bits plus 4 * key(i >> 1, j >> 1)``), and
* a recursive quadtree/octree traversal that enumerates an arbitrary
  (non-power-of-two) grid in Z-order directly.

Both must agree with the vectorized keys and argsorts on arbitrary shapes,
including degenerate ones (single rows/columns/pencils), and the
``MAX_BITS`` coordinate bounds must be enforced with :class:`ValueError`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stencil.zorder import (
    MAX_BITS_2D,
    MAX_BITS_3D,
    morton_argsort,
    morton_key_2d,
    morton_key_3d,
)


def ref_key_recursive(coords: tuple[int, ...]) -> int:
    """Recursive pure-Python Morton key: interleave low bits, recurse on >>1."""
    if all(c == 0 for c in coords):
        return 0
    d = len(coords)
    low = sum((c & 1) << axis for axis, c in enumerate(coords))
    return low + (ref_key_recursive(tuple(c >> 1 for c in coords)) << d)


def ref_zorder_traversal(shape: tuple[int, ...]) -> list[int]:
    """Row-major flat ids of ``shape`` in Z-order, by recursive subdivision.

    Recurses over the power-of-two bounding box, visiting child boxes in
    Z-child order (axis 0 is the least significant bit) and skipping boxes
    that fall entirely outside the grid — the classic quadtree/octree
    definition of the Z-curve, independent of any bit arithmetic.
    """
    d = len(shape)
    side = 1
    while side < max(shape):
        side *= 2
    strides = [1] * d
    for axis in range(d - 2, -1, -1):
        strides[axis] = strides[axis + 1] * shape[axis + 1]

    out: list[int] = []

    def visit(origin: tuple[int, ...], size: int) -> None:
        if any(o >= s for o, s in zip(origin, shape)):
            return
        if size == 1:
            out.append(sum(o * st_ for o, st_ in zip(origin, strides)))
            return
        half = size // 2
        for child in range(1 << d):
            # Bit ``axis`` of ``child`` selects the upper half along that axis.
            corner = tuple(
                o + (half if (child >> axis) & 1 else 0)
                for axis, o in enumerate(origin)
            )
            visit(corner, half)

    visit((0,) * d, side)
    return out


shapes_2d = st.tuples(st.integers(1, 12), st.integers(1, 12))
shapes_3d = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))


class TestKeysMatchRecursiveReference:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**MAX_BITS_2D - 1),
                st.integers(0, 2**MAX_BITS_2D - 1),
            ),
            min_size=1,
            max_size=32,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_2d_keys(self, pairs):
        i = np.array([p[0] for p in pairs], dtype=np.int64)
        j = np.array([p[1] for p in pairs], dtype=np.int64)
        keys = morton_key_2d(i, j)
        expected = [ref_key_recursive((int(a), int(b))) for a, b in pairs]
        assert [int(k) for k in keys] == expected

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**MAX_BITS_3D - 1),
                st.integers(0, 2**MAX_BITS_3D - 1),
                st.integers(0, 2**MAX_BITS_3D - 1),
            ),
            min_size=1,
            max_size=32,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_3d_keys(self, triples):
        i = np.array([p[0] for p in triples], dtype=np.int64)
        j = np.array([p[1] for p in triples], dtype=np.int64)
        k = np.array([p[2] for p in triples], dtype=np.int64)
        keys = morton_key_3d(i, j, k)
        expected = [ref_key_recursive(tuple(map(int, p))) for p in triples]
        assert [int(key) for key in keys] == expected


class TestArgsortMatchesRecursiveTraversal:
    @given(shapes_2d)
    @settings(max_examples=40, deadline=None)
    def test_2d_any_shape(self, shape):
        assert morton_argsort(shape).tolist() == ref_zorder_traversal(shape)

    @given(shapes_3d)
    @settings(max_examples=25, deadline=None)
    def test_3d_any_shape(self, shape):
        assert morton_argsort(shape).tolist() == ref_zorder_traversal(shape)

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 9), (9, 1), (3, 5), (7, 11), (1, 2**10)]
    )
    def test_2d_degenerate_and_non_power_of_two(self, shape):
        assert morton_argsort(shape).tolist() == ref_zorder_traversal(shape)

    @pytest.mark.parametrize(
        "shape", [(1, 1, 1), (1, 1, 8), (1, 7, 1), (5, 1, 5), (3, 5, 7)]
    )
    def test_3d_degenerate_and_non_power_of_two(self, shape):
        assert morton_argsort(shape).tolist() == ref_zorder_traversal(shape)


class TestMaxBitsBoundary:
    def test_2d_boundary_value_ok(self):
        top = 2**MAX_BITS_2D - 1
        assert int(morton_key_2d(top, top)) == ref_key_recursive((top, top))

    def test_3d_boundary_value_ok(self):
        top = 2**MAX_BITS_3D - 1
        assert int(morton_key_3d(top, top, top)) == ref_key_recursive(
            (top, top, top)
        )

    @pytest.mark.parametrize("i,j", [(2**MAX_BITS_2D, 0), (0, 2**MAX_BITS_2D), (-1, 0), (0, -1)])
    def test_2d_out_of_range_rejected(self, i, j):
        with pytest.raises(ValueError):
            morton_key_2d(i, j)

    @pytest.mark.parametrize(
        "i,j,k",
        [(2**MAX_BITS_3D, 0, 0), (0, 2**MAX_BITS_3D, 0), (0, 0, 2**MAX_BITS_3D), (-1, 0, 0)],
    )
    def test_3d_out_of_range_rejected(self, i, j, k):
        with pytest.raises(ValueError):
            morton_key_3d(i, j, k)
