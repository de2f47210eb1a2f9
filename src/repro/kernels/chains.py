"""Row/layer chain kernels: vectorized Bipartite Decomposition assembly.

The reference BD colors one chain (row) per Python iteration via
``chain_color`` and, in 3D, one layer per iteration on top of that.  All
chains of a grid are independent, so the whole decomposition collapses into a
handful of whole-grid numpy expressions:

* per-chain optimum ``RC_j = max(max w, max consecutive-pair sum)`` down every
  chain at once,
* even positions start at 0, odd positions end at their chain's ``RC_j``,
* odd chains shift by the global ``RC`` (and odd layers by the global ``LC``).

The results are bit-identical to the sequential construction — same local
``RC_j`` per chain, same global shifts — which the differential tests assert.
"""

from __future__ import annotations

import numpy as np


def bd_starts_2d(grid: np.ndarray) -> tuple[np.ndarray, int]:
    """Vectorized 2D Bipartite Decomposition.

    ``grid`` is the ``(X, Y)`` weight grid; chain ``j`` is ``grid[:, j]``.
    Returns ``(starts, RC)`` with ``starts`` shaped like ``grid`` and ``RC``
    the largest per-chain optimum (the certified lower bound).
    """
    w = np.asarray(grid, dtype=np.int64)
    X, Y = w.shape
    rc_j = w.max(axis=0, initial=0)
    if X > 1:
        rc_j = np.maximum(rc_j, (w[:-1, :] + w[1:, :]).max(axis=0))
    starts = np.zeros((X, Y), dtype=np.int64)
    odd_i = np.arange(X) % 2 == 1
    starts[odd_i, :] = rc_j[None, :] - w[odd_i, :]
    rc = int(rc_j.max(initial=0))
    odd_j = np.arange(Y) % 2 == 1
    starts[:, odd_j] += rc
    return starts, rc


def bd_starts_3d(grid: np.ndarray) -> tuple[np.ndarray, int]:
    """Vectorized 3D Bipartite Decomposition.

    Each ``z`` layer gets the 2D construction with its own per-layer ``RC``;
    odd layers then shift by the global layer bound ``LC`` (the maximum layer
    ``maxcolor``).  Returns ``(starts, LC)``.
    """
    w = np.asarray(grid, dtype=np.int64)
    X, Y, Z = w.shape
    rc_jk = w.max(axis=0, initial=0)  # (Y, Z) per-chain optima
    if X > 1:
        rc_jk = np.maximum(rc_jk, (w[:-1, :, :] + w[1:, :, :]).max(axis=0))
    starts = np.zeros((X, Y, Z), dtype=np.int64)
    odd_i = np.arange(X) % 2 == 1
    starts[odd_i, :, :] = rc_jk[None, :, :] - w[odd_i, :, :]
    rc_k = rc_jk.max(axis=0, initial=0)  # (Z,) per-layer RC
    odd_j = np.arange(Y) % 2 == 1
    starts[:, odd_j, :] += rc_k[None, None, :]
    ends = starts + w
    lc = int(ends.max(initial=0))
    odd_k = np.arange(Z) % 2 == 1
    starts[:, :, odd_k] += lc
    return starts, lc


def bdp_recolor_order_fast(
    blocks: np.ndarray, block_weight_sums: np.ndarray, starts: np.ndarray, n: int
) -> np.ndarray:
    """Vectorized clique-guided recolor order (Section V.B).

    Blocks by non-increasing weight sum (stable), vertices within a block by
    increasing current start (stable), first occurrence kept, block-less
    vertices appended in id order — identical to the reference Python loop.

    When every sum lies in ``[0, 2**15)`` — as it does whenever block size
    × max weight is below ``2**15`` — the negated sums are sorted as
    ``int16``, for which numpy's stable sort is a radix sort: the same
    order, 94 → 18 ms at 768² and 30 → 4 ms at 64³ (weights 1–999, 2-CPU
    host).
    """
    if len(blocks) == 0:
        return np.arange(n, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    key = -np.asarray(block_weight_sums)
    if -(1 << 15) < key.min() and key.max() <= 0:
        key = key.astype(np.int16)
    ordered = blocks[np.argsort(key, kind="stable")]
    inner = np.argsort(starts[ordered], axis=1, kind="stable")
    flat = np.take_along_axis(ordered, inner, axis=1).ravel()
    # First occurrence of every vertex without a sort: the smallest position
    # each id appears at (``len(flat)`` if none), then keep those positions.
    positions = np.arange(len(flat), dtype=np.int64)
    first = np.full(n, len(flat), dtype=np.int64)
    np.minimum.at(first, flat, positions)
    order = flat[first[flat] == positions]
    if len(order) < n:
        order = np.concatenate([order, np.flatnonzero(first == len(flat))])
    return order.astype(np.int64)
