"""GLL from any position of its order on, given final starts before it.

Under the paper's line-by-line order (GLL) the outer axis (the last one: a
column in 2D, a plane in 3D) varies slowest and axis 0 fastest, so the
order's position of a cell is its C-order id in the reversed shape
(:func:`gll_positions`).  A neighbour at a smaller outer index always
precedes a cell, and one at a larger outer index always follows it.

:func:`gll_suffix` resumes the scan at any position ``pos``, given final
starts before it: the cells from ``pos`` on are reset to ``UNCOLORED`` and
placed by one call of the compiled first-fit loop
(:func:`repro.kernels.wavefront.first_fit_pass`), each reading only the
earlier half of its stencil (``StencilLayout.earlier_deltas``).  An
earlier neighbour is either before ``pos`` (final) or was placed before
it; later neighbours are never read, whatever ``starts`` held there.

Two callers resume a scan this way: the tiler's band kernel
(:func:`color_region`, whose first column/plane is the previous band's
*carry*) and the incremental engine's GLL delta pass (from the first dirty
position of a recolored grid).  Both work over a padded-offset
:class:`~repro.kernels.substrate.StencilLayout`: ``O(cells)`` of index
arrays, never the ``cells × degree`` table a materialized adjacency would
cost (half a gigabyte for one streamed 16384-wide band).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.substrate import StencilLayout
from repro.kernels.wavefront import first_fit_pass

__all__ = ["color_region", "gll_positions", "gll_suffix"]


def gll_positions(cells: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The line-by-line order's position of every flat id of ``cells``."""
    coords = np.unravel_index(np.asarray(cells, dtype=np.int64), shape)
    return np.ravel_multi_index(coords[::-1], shape[::-1])


def gll_suffix(
    layout: StencilLayout,
    weights: np.ndarray,
    starts: Optional[np.ndarray],
    pos: int,
) -> np.ndarray:
    """GLL first-fit starts of a grid from position ``pos`` of its order on.

    ``weights`` is the grid (``layout``'s shape) and ``starts`` its flat
    starts, final at every cell before ``pos`` in the line-by-line order;
    entries from ``pos`` on are never read (``None`` when ``pos`` is 0).
    Returns the flat starts with every cell from ``pos`` on recolored.
    """
    # The padded ids in line-by-line order: C order of the reversed shape.
    cells = layout.interior.reshape(weights.shape).T.ravel()[pos:]
    return first_fit_pass(
        layout, weights.ravel(), cells, starts, fresh=True,
        deltas=layout.earlier_deltas,
    )


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
    out = gll_suffix(
        StencilLayout.of(shape), weights, starts,
        0 if carry is None else weights.size // shape[-1],
    )
    return out.reshape(shape)
