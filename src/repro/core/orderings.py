"""Vertex orderings for greedy coloring (Section V.A).

Two families, per the paper's analysis of the greedy worst case:

* **geometric** orders (line-by-line, Z-order) ensure a vertex is rarely
  colored after all of its neighbors;
* **weight** orders (largest first) color heavy vertices before their
  neighborhoods fill with awkwardly spaced intervals.

The **clique** order (:func:`clique_order`) visits the stencil's blocks
heaviest first.  First fit in it is GKF, SGK-ws and 3D SGK; recoloring in it
is BDP's sweep (Section V.B).  Only 2D SGK's ``4!`` search inside each block
is not a fixed order (:mod:`repro.core.algorithms.clique_first`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.problem import IVCInstance
from repro.runtime.context import resolve_fast


def identity_order(n: int) -> np.ndarray:
    """Vertices in id order."""
    return np.arange(n, dtype=np.int64)


def line_by_line_order(instance: IVCInstance) -> np.ndarray:
    """Scan lines, then planes (GLL).  Falls back to id order off-stencil."""
    if instance.geometry is None:
        return identity_order(instance.num_vertices)
    return instance.geometry.line_by_line_order()


def zorder_order(instance: IVCInstance) -> np.ndarray:
    """Morton (Z-order) traversal of the stencil grid (GZO).

    The geometry's cached, read-only permutation: one argsort per shape.
    """
    geo = instance.geometry
    if geo is None:
        raise ValueError("Z-order requires a stencil geometry")
    return geo.zorder_order


def largest_first_order(instance: IVCInstance) -> np.ndarray:
    """Vertices by non-increasing weight, ties by id (GLF).

    When every weight lies in ``[0, 2**15)`` the negated weights are sorted
    as ``int16``, for which numpy's stable sort is a radix sort: the same
    permutation, 84 → 15 ms at 768² and 29 → 5 ms at 64³ (weights 1–999,
    2-CPU host).
    """
    key = -np.asarray(instance.weights)
    if -(1 << 15) < key.min(initial=0) and key.max(initial=0) <= 0:
        key = key.astype(np.int16)
    return np.argsort(key, kind="stable").astype(np.int64, copy=False)


def clique_order(
    instance: IVCInstance, key: np.ndarray, *, fast: Optional[bool] = None
) -> np.ndarray:
    """The blocks by non-increasing weight sum, each vertex at its first block.

    Returns a permutation of all vertices: the :math:`K_4` (2D) /
    :math:`K_8` (3D) blocks by non-increasing weight sum (stable), each
    vertex placed at the first of them that holds it, and the vertices
    placed at one block by ``(key, id)``.  A grid with an axis below 2 has
    no blocks and keeps id order.

    * ``key`` all zeros: GKF's order (within a block, id order);
    * ``key = -weights``: SGK-ws's and 3D SGK's (heaviest first);
    * ``key = starts``: BDP's recoloring sweep (lowest start first).

    With fast paths on (``fast=None`` follows the context) the order comes
    from :func:`repro.kernels.chains.bdp_recolor_order_fast`, with no block
    table read; the block loop below is the reference (identical order,
    differentially tested).
    """
    geo = instance.geometry
    if geo is None:
        raise ValueError("the clique order requires a stencil geometry")
    key = np.asarray(key, dtype=np.int64)
    n = instance.num_vertices
    if min(geo.shape) < 2:
        return np.arange(n, dtype=np.int64)
    sums = geo.block_weight_sums(instance.weights)
    if resolve_fast(fast):
        from repro.kernels.chains import bdp_recolor_order_fast

        return bdp_recolor_order_fast(geo.shape, sums, key)
    blocks = geo.blocks
    seen = np.zeros(n, dtype=bool)
    order = []
    for block in blocks[np.argsort(-sums, kind="stable")]:
        for v in block[np.argsort(key[block], kind="stable")]:
            if not seen[v]:
                seen[v] = True
                order.append(v)
    return np.array(order, dtype=np.int64)


def random_order(instance: IVCInstance, seed: int = 0) -> np.ndarray:
    """Uniformly random permutation (baseline for ordering ablations)."""
    rng = np.random.default_rng(seed)
    return rng.permutation(instance.num_vertices).astype(np.int64)


def smallest_last_order(instance: IVCInstance) -> np.ndarray:
    """Matula–Beck smallest-last ordering, weighted.

    Classic-coloring extension from the paper's related work: repeatedly
    remove the vertex whose *remaining weighted degree* (sum of uncolored
    neighbors' weights plus its own) is smallest; color in reverse removal
    order.  For interval coloring this tends to leave the heaviest, most
    constrained vertices for first placement.
    """
    import heapq

    n = instance.num_vertices
    w = instance.weights
    graph = instance.graph
    score = np.empty(n, dtype=np.int64)
    for v in range(n):
        nbs = graph.neighbors(v)
        score[v] = w[v] + int(w[nbs].sum())
    removed = np.zeros(n, dtype=bool)
    # Ties broken toward removing lighter vertices first, so heavy vertices
    # surface at the front of the coloring order.
    heap = [(int(score[v]), int(w[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order = np.empty(n, dtype=np.int64)
    pos = n - 1
    while heap:
        s, _wv, v = heapq.heappop(heap)
        if removed[v] or s != score[v]:
            continue  # stale entry
        removed[v] = True
        order[pos] = v
        pos -= 1
        for u in graph.neighbors(v):
            u = int(u)
            if not removed[u]:
                score[u] -= int(w[v])
                heapq.heappush(heap, (int(score[u]), int(w[u]), u))
    return order
