"""GLL from an outer index on, given final starts before it.

Under the paper's line-by-line order (GLL) the predecessors of a cell are
exactly its neighbours with a smaller analytic wavefront level (``i + 2j``,
``i + 2j + 4k`` — see :func:`repro.kernels.substrate.analytic_wavefront`).
The outer axis (the last one: a column in 2D, a plane in 3D) weighs most
in the level, so a neighbour at a smaller outer index always precedes a
cell, and one at a larger outer index always follows it.  A GLL scan can
therefore resume at any outer index ``c0``: :func:`gll_suffix` colors the
cells from ``c0`` on in the analytic wavefront of that sub-shape (local
and global levels differ by a constant), given final starts before
``c0``.  Each cell gathers only the earlier half of its stencil
(``StencilLayout.earlier_deltas``): an earlier neighbour is either before
``c0`` (final) or was placed in an earlier batch, and later neighbours are
never read, whatever ``starts`` holds there.

Two callers resume a scan this way: the tiler's band kernel
(:func:`color_region`, whose first column/plane is the previous band's
*carry*) and the incremental engine's GLL delta pass (from the first dirty
outer index of a recolored grid).  Both run the same batch loop as the
monolithic kernels (:func:`repro.kernels.wavefront.first_fit_wavefronts`)
over a padded-offset :class:`~repro.kernels.substrate.StencilLayout`:
``O(cells)`` of index arrays, never the ``cells × degree`` table a
materialized adjacency would cost (half a gigabyte for one streamed
16384-wide band).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.substrate import StencilLayout, analytic_wavefront
from repro.kernels.wavefront import first_fit_wavefronts

__all__ = ["color_region", "gll_suffix"]


def gll_suffix(
    layout: StencilLayout,
    weights: np.ndarray,
    starts: Optional[np.ndarray],
    c0: int,
) -> tuple[np.ndarray, int]:
    """GLL first-fit starts of a grid from outer index ``c0`` on.

    ``weights`` is the grid (``layout``'s shape) and ``starts`` its flat
    starts, final at every outer index before ``c0``; entries from ``c0``
    on are never read (``None`` when ``c0`` is 0).  Returns the flat
    starts with every cell from ``c0`` on recolored, and the number of
    wavefront batches run.

    A local id ``r * m + t`` of the suffix sub-shape (``m`` outer indices)
    is the global id ``r * outer + c0 + t``.
    """
    shape = weights.shape
    m = shape[-1] - c0
    verts, ptr = analytic_wavefront(shape[:-1] + (m,))
    verts += (verts // m + 1) * c0
    out = first_fit_wavefronts(
        layout, weights.ravel(), verts, ptr, starts=starts,
        deltas=layout.earlier_deltas,
    )
    return out, len(ptr) - 1


def color_region(
    weights: np.ndarray, carry: Optional[np.ndarray] = None
) -> np.ndarray:
    """GLL first-fit starts of a grid region, after an optional carry.

    Parameters
    ----------
    weights:
        The region's weights, shaped ``(X, Y)`` or ``(X, Y, Z)``.
    carry:
        The known starts of the region's first column/plane
        (``weights[..., 0]``), shaped ``weights.shape[:-1]``.  Its cells
        precede every other cell of the region, so they are taken as
        final and the rest is colored after them.

    Returns
    -------
    np.ndarray
        ``int64`` starts of the whole region, carry included, same shape as
        ``weights``.  With no carry this is exactly the monolithic GLL
        kernel's output for the region as a standalone grid.
    """
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    shape = weights.shape
    if weights.ndim not in (2, 3):
        raise ValueError(f"weights must be 2D or 3D, got {weights.ndim}D")
    starts = None
    if carry is not None:
        carry = np.asarray(carry, dtype=np.int64)
        if carry.shape != shape[:-1]:
            raise ValueError(f"carry shape {carry.shape} != {shape[:-1]}")
        starts = np.zeros(shape, dtype=np.int64)
        starts[..., 0] = carry
        starts = starts.ravel()
    out, _ = gll_suffix(
        StencilLayout.of(shape), weights, starts, 0 if carry is None else 1
    )
    return out.reshape(shape)
