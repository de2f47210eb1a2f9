"""Region coloring with preset boundary cells (the tiler's kernel).

:func:`color_region` first-fit colors a rectangular sub-grid of a 9-pt or
27-pt stencil in the paper's GLL order, with some cells *preset* to starts
already known from outside the region (in the tiler, the carry
column/plane of the previous streamed band).

Correctness hinges on *when* a preset value becomes visible.  Under GLL the
predecessors of a cell are exactly its neighbors with a smaller analytic
wavefront level (``i + 2j``, ``i + 2j + 4k`` — see
:func:`repro.kernels.substrate.analytic_wavefront`), and that holds for
*any* sub-rectangle because the local level differs from the global one by
a constant.  So preset cells are not written up front: they are scheduled
into the wavefront like everyone else and their known value is stored when
their batch runs.  A later-level preset (e.g. the *zipper* row below a
sub-grid, whose cells follow some of its cells in the global scan and
precede others) therefore constrains exactly the cells it precedes globally
and is invisible to the cells it follows, so presetting any cell at its
global start reproduces the monolithic scan exactly (``docs/tiling.md``).

The region runs the same batch loop as the monolithic kernels
(:func:`repro.kernels.wavefront.first_fit_wavefronts`) over a padded-offset
:class:`~repro.kernels.substrate.StencilLayout` built on demand for the
region's shape: ``O(cells)`` of index arrays, never the ``cells × degree``
table a materialized adjacency would cost (half a gigabyte for one
streamed 16384-wide band).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.substrate import StencilLayout, analytic_wavefront
from repro.kernels.wavefront import first_fit_wavefronts

__all__ = ["color_region"]


def color_region(
    weights: np.ndarray,
    preset_mask: Optional[np.ndarray] = None,
    preset_starts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """GLL first-fit starts of a grid region, honoring preset boundary cells.

    Parameters
    ----------
    weights:
        The region's weights, shaped ``(X, Y)`` or ``(X, Y, Z)``.
    preset_mask:
        Boolean array of the same shape; ``True`` cells take their value
        from ``preset_starts`` (at their wavefront level — see the module
        docstring) instead of being first-fit colored.
    preset_starts:
        The known global starts of the masked cells (ignored elsewhere).

    Returns
    -------
    np.ndarray
        ``int64`` starts of the region, same shape as ``weights``.  With no
        preset cells this is exactly the monolithic GLL kernel's output for
        the region as a standalone grid.
    """
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    shape = weights.shape
    if weights.ndim not in (2, 3):
        raise ValueError(f"weights must be 2D or 3D, got {weights.ndim}D")
    n = weights.size
    flat_mask = None
    flat_pre = None
    if preset_mask is not None:
        if preset_starts is None:
            raise ValueError("preset_mask given without preset_starts")
        flat_mask = np.ascontiguousarray(preset_mask, dtype=bool).ravel()
        flat_pre = np.ascontiguousarray(preset_starts, dtype=np.int64).ravel()
        if flat_mask.size != n or flat_pre.size != n:
            raise ValueError("preset arrays must match the region shape")

    verts, ptr = analytic_wavefront(shape)
    starts = first_fit_wavefronts(
        StencilLayout.of(shape), weights.ravel(), verts, ptr,
        preset_mask=flat_mask, preset_starts=flat_pre,
    )
    return starts.reshape(shape)
