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

Neighborhoods are gathered analytically by offset arithmetic — eight
(twenty-six) shifted index computations per batch with bounds masking —
instead of through the substrate's dense neighbor table.  A materialized
table costs ``cells × degree × 8`` bytes (half a gigabyte for one streamed
16384-wide band), which would defeat the tiler's memory bound; the gather
costs only the batch itself.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.substrate import analytic_wavefront
from repro.kernels.wavefront import UNCOLORED, first_fit_intervals
from repro.stencil.grid2d import OFFSETS_9PT
from repro.stencil.grid3d import OFFSETS_27PT

__all__ = ["color_region", "gather_neighbors_2d", "gather_neighbors_3d"]

_OFF_2D = np.asarray(OFFSETS_9PT, dtype=np.int64)  # (8, 2)
_OFF_3D = np.asarray(OFFSETS_27PT, dtype=np.int64)  # (26, 3)


def _gather_neighbors_2d(
    batch: np.ndarray, shape: tuple[int, int], pad: np.int64
) -> np.ndarray:
    """Flat neighbor ids ``(b, 8)`` of ``batch``; out-of-region slots → pad."""
    X, Y = shape
    i, j = batch // Y, batch % Y
    ni = i[:, None] + _OFF_2D[:, 0][None, :]
    nj = j[:, None] + _OFF_2D[:, 1][None, :]
    ok = (ni >= 0) & (ni < X) & (nj >= 0) & (nj < Y)
    return np.where(ok, ni * Y + nj, pad)


def _gather_neighbors_3d(
    batch: np.ndarray, shape: tuple[int, int, int], pad: np.int64
) -> np.ndarray:
    """Flat neighbor ids ``(b, 26)`` of ``batch``; out-of-region slots → pad."""
    X, Y, Z = shape
    k = batch % Z
    rest = batch // Z
    i, j = rest // Y, rest % Y
    ni = i[:, None] + _OFF_3D[:, 0][None, :]
    nj = j[:, None] + _OFF_3D[:, 1][None, :]
    nk = k[:, None] + _OFF_3D[:, 2][None, :]
    ok = (ni >= 0) & (ni < X) & (nj >= 0) & (nj < Y) & (nk >= 0) & (nk < Z)
    return np.where(ok, (ni * Y + nj) * Z + nk, pad)


# Public aliases: the incremental recolor engine (repro/incremental) walks
# dependency cones with the same analytic offset gather the tiler uses.
gather_neighbors_2d = _gather_neighbors_2d
gather_neighbors_3d = _gather_neighbors_3d


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
    pad = np.int64(n)
    gather = _gather_neighbors_2d if weights.ndim == 2 else _gather_neighbors_3d

    verts, ptr = analytic_wavefront(shape)
    starts_ext = np.full(n + 1, UNCOLORED, dtype=np.int64)
    weights_ext = np.empty(n + 1, dtype=np.int64)
    weights_ext[:-1] = weights.ravel()
    weights_ext[-1] = 0

    flat_mask = None
    flat_pre = None
    if preset_mask is not None:
        if preset_starts is None:
            raise ValueError("preset_mask given without preset_starts")
        flat_mask = np.ascontiguousarray(preset_mask, dtype=bool).ravel()
        flat_pre = np.ascontiguousarray(preset_starts, dtype=np.int64).ravel()
        if flat_mask.size != n or flat_pre.size != n:
            raise ValueError("preset arrays must match the region shape")

    for b in range(len(ptr) - 1):
        batch = verts[ptr[b] : ptr[b + 1]]
        if flat_mask is None:
            free, pre = batch, None
        else:
            m = flat_mask[batch]
            free, pre = batch[~m], batch[m]
        if free.size:
            rows = gather(free, shape, pad)
            starts_ext[free] = first_fit_intervals(
                starts_ext[rows], weights_ext[rows], weights_ext[free]
            )
        if pre is not None and pre.size:
            starts_ext[pre] = flat_pre[pre]
    return starts_ext[:-1].reshape(shape)
