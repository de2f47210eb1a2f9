"""Morton (Z-order) indexing for 2D and 3D grids.

The Greedy Z-Order heuristic (GZO, Section V.A of the paper) colors vertices
in the recursive Z-order of their grid coordinates instead of line-by-line, so
that no spatial dimension is favored.  Morton keys interleave the bits of the
coordinates; sorting by the key yields the Z-order traversal.

All functions are vectorized over numpy arrays of coordinates; keys are
computed with the classic bit-dilation ("magic numbers") method in O(1) word
operations per coordinate.
"""

from __future__ import annotations

import numpy as np

#: Maximum number of bits per coordinate supported by the 2D dilation below.
MAX_BITS_2D = 32
#: Maximum number of bits per coordinate supported by the 3D dilation below.
MAX_BITS_3D = 21


def _dilate_2(x: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of ``x`` so consecutive bits are 2 apart."""
    x = x.astype(np.uint64)
    x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def _dilate_3(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of ``x`` so consecutive bits are 3 apart."""
    x = x.astype(np.uint64)
    x = (x | (x << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
    return x


def _check_range(arr: np.ndarray, bits: int, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= (1 << bits)):
        raise ValueError(f"{name} coordinates must lie in [0, 2**{bits})")
    return arr


def morton_key_2d(i, j) -> np.ndarray:
    """Morton keys for 2D coordinates (vectorized).

    Bit ``2k`` of the key is bit ``k`` of ``i`` and bit ``2k + 1`` is bit
    ``k`` of ``j``, so keys sort grid points in Z-order.
    """
    i = _check_range(i, MAX_BITS_2D, "2D")
    j = _check_range(j, MAX_BITS_2D, "2D")
    return _dilate_2(i) | (_dilate_2(j) << np.uint64(1))


def morton_key_3d(i, j, k) -> np.ndarray:
    """Morton keys for 3D coordinates (vectorized)."""
    i = _check_range(i, MAX_BITS_3D, "3D")
    j = _check_range(j, MAX_BITS_3D, "3D")
    k = _check_range(k, MAX_BITS_3D, "3D")
    return _dilate_3(i) | (_dilate_3(j) << np.uint64(1)) | (_dilate_3(k) << np.uint64(2))


#: The key function of each supported dimension.
_KEYS = {2: morton_key_2d, 3: morton_key_3d}


def morton_argsort(shape: tuple[int, ...]) -> np.ndarray:
    """Z-order permutation of the row-major vertex ids of a 2D or 3D grid.

    ``result[r]`` is the flat C-order id of the ``r``-th vertex in Z-order
    traversal.
    """
    coords = np.indices(shape, dtype=np.int64).reshape(len(shape), -1)
    keys = _KEYS[len(shape)](*coords)
    return np.argsort(keys, kind="stable").astype(np.int64)
