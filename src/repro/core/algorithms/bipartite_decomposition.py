"""Bipartite Decomposition — the approximation algorithm (Section V.B).

2D construction: each of the ``Y`` rows is a chain, colored optimally by the
bipartite algorithm of Section III.B; with ``RC`` the largest row optimum
(a lower bound on ``maxcolor*``, being the optimum of a subgraph), even rows
keep their colors in ``[0, RC)`` and odd rows are shifted to ``[RC, 2RC)``.
Hence ``maxcolor <= 2 RC <= 2 maxcolor*`` — a 2-approximation.

3D construction: each ``z`` layer (a 9-pt stencil) is colored with the 2D
2-approximation; the layer graph is a chain, so shifting odd layers doubles
again — a 4-approximation.

``BDP`` re-compacts the BD coloring with a clique-guided greedy recoloring
pass in :func:`~repro.core.orderings.clique_order`, keyed by the BD
starts (see :mod:`repro.core.algorithms.post_opt`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.coloring import Coloring
from repro.core.greedy_engine import greedy_recolor_pass
from repro.core.orderings import clique_order
from repro.core.problem import IVCInstance
from repro.runtime.context import resolve_fast


def chain_color(weights: np.ndarray) -> tuple[np.ndarray, int]:
    """Optimal interval coloring of a chain (path graph).

    Even positions start at 0; odd positions end at ``RC``, the maximum
    weight of two consecutive vertices (the chain's optimum).  Returns
    ``(starts, RC)``.  A single vertex is colored ``[0, w)`` with
    ``RC = w``.
    """
    w = np.asarray(weights, dtype=np.int64)
    n = len(w)
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    if n == 1:
        return np.zeros(1, dtype=np.int64), int(w[0])
    rc = int(max(int(w.max()), int((w[:-1] + w[1:]).max())))
    starts = np.zeros(n, dtype=np.int64)
    odd = np.arange(n) % 2 == 1
    starts[odd] = rc - w[odd]
    return starts, rc


def _bd_starts_2d(instance: IVCInstance) -> tuple[np.ndarray, int]:
    """BD start vector and the row lower bound ``RC`` for a 2D instance."""
    geo = instance.geometry
    grid = instance.weight_grid()  # shape (X, Y); row j is grid[:, j]
    X, Y = geo.shape
    row_starts = np.empty((X, Y), dtype=np.int64)
    rc = 0
    for j in range(Y):
        starts_j, rc_j = chain_color(grid[:, j])
        row_starts[:, j] = starts_j
        rc = max(rc, rc_j)
    odd_rows = (np.arange(Y) % 2 == 1)[None, :]
    starts = row_starts + rc * odd_rows
    return starts.ravel(), rc


def _bd_starts_3d(instance: IVCInstance) -> tuple[np.ndarray, int]:
    """BD start vector and the layer bound ``LC`` for a 3D instance.

    ``LC`` is the maximum over layers of the 2D BD ``maxcolor`` (at most
    ``2 maxcolor*``), so the total ``2 LC <= 4 maxcolor*``.
    """
    geo = instance.geometry
    grid = instance.weight_grid()  # shape (X, Y, Z); layer k is grid[:, :, k]
    X, Y, Z = geo.shape
    layer_grid = geo.layer_grid()
    all_starts = np.empty((X, Y, Z), dtype=np.int64)
    lc = 0
    for k in range(Z):
        layer_instance = IVCInstance(weights=grid[:, :, k].ravel(), geometry=layer_grid)
        layer_starts, _rc = _bd_starts_2d(layer_instance)
        layer_starts = layer_starts.reshape(X, Y)
        all_starts[:, :, k] = layer_starts
        ends = layer_starts + grid[:, :, k]
        lc = max(lc, int(ends.max(initial=0)))
    odd_layers = (np.arange(Z) % 2 == 1)[None, None, :]
    starts = all_starts + lc * odd_layers
    return starts.ravel(), lc


def bd_with_bound(
    instance: IVCInstance, *, fast: Optional[bool] = None
) -> tuple[Coloring, int]:
    """Run BD and also return the decomposition bound (``RC`` in 2D, ``LC`` in 3D).

    In 2D the returned bound is a certified lower bound on ``maxcolor*``;
    the approximation tests rely on ``maxcolor(BD) <= 2 * RC``.  With fast
    paths enabled (the default) the per-row/per-layer loops run through the
    vectorized chain kernel of :mod:`repro.kernels.chains` — identical
    starts, differentially tested.
    """
    if instance.geometry is None:
        raise ValueError("Bipartite Decomposition requires a stencil geometry")
    if resolve_fast(fast):
        from repro.kernels.chains import bd_starts_2d, bd_starts_3d

        kernel = bd_starts_2d if instance.is_2d else bd_starts_3d
        grid_starts, bound = kernel(instance.weight_grid())
        starts = grid_starts.ravel()
    elif instance.is_2d:
        starts, bound = _bd_starts_2d(instance)
    else:
        starts, bound = _bd_starts_3d(instance)
    return Coloring(instance=instance, starts=starts, algorithm="BD"), bound


def bipartite_decomposition(instance: IVCInstance) -> Coloring:
    """Bipartite Decomposition (BD): 2-approx on 2DS-IVC, 4-approx on 3DS-IVC."""
    coloring, _bound = bd_with_bound(instance)
    return coloring


def bipartite_decomposition_best_axis(instance: IVCInstance) -> Coloring:
    """BD with the better of the two row orientations (extension).

    The paper decomposes along one fixed axis; transposing the grid swaps
    which dimension forms the chains, and the two orientations can give
    different ``RC``.  This variant runs both and keeps the smaller
    ``maxcolor`` — same 2-approximation guarantee, never worse than BD up to
    the orientation choice.  2D only (3D layers already decompose twice).
    """
    if not instance.is_2d:
        return bipartite_decomposition(instance)
    direct, _ = bd_with_bound(instance)
    transposed_instance = IVCInstance.from_grid_2d(
        instance.weight_grid().T, name=instance.name
    )
    swapped, _ = bd_with_bound(transposed_instance)
    if swapped.maxcolor < direct.maxcolor:
        starts = swapped.starts.reshape(transposed_instance.geometry.shape).T.ravel()
        return Coloring(instance=instance, starts=starts, algorithm="BD-ax")
    return direct.with_algorithm("BD-ax")


def bipartite_decomposition_post(instance: IVCInstance) -> Coloring:
    """Bipartite Decomposition + Post-optimization (BDP).

    Recolors the BD solution one vertex at a time by first fit, in the
    clique-guided order of Section V.B: blocks by non-increasing weight sum,
    vertices within a block by increasing current start.  Recoloring never
    raises a start, so ``maxcolor(BDP) <= maxcolor(BD)`` and the
    approximation guarantee carries over.
    """
    coloring, _bound = bd_with_bound(instance)
    order = clique_order(instance, coloring.starts)
    starts = greedy_recolor_pass(instance, coloring.starts, order)
    return Coloring(instance=instance, starts=starts, algorithm="BDP")
