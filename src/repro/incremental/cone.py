"""The recolor walk: first fit again over only what a weight delta reaches.

GLL, GZO and GLF are each one first-fit scan in a fixed order (Section
V.A), and a cell's start depends only on its weight and on the intervals
of its *predecessors*, the neighbours the scan visits before it.  Each
order is a key per cell, ties broken by id: for GLL and GZO the cell's
position in the line-by-line or Morton order (a static rank per shape,
:attr:`~repro.kernels.substrate.Substrate.gll_ranking` and
:attr:`~repro.kernels.substrate.Substrate.gzo_ranking`); for GLF
``-weight`` of the *new* weights, since heaviest first with a stable
argsort is the order ``(weight desc, id asc)``.

:func:`repro.kernels.native.cone_walk` first-fits again, in key order,
only the dirty cells, the cells whose predecessors a dirty cell joined or
left (GLF's 1-ring; a static order's predecessors never change), and the
successors of every cell whose interval moved.  Each cell is placed once,
after all its predecessors are final, so the result is bit-identical to a
full pass and cells outside the cone keep their start
(``docs/incremental.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.kernels import native
from repro.kernels.substrate import StencilLayout

__all__ = ["ConeResult", "propagate_cone"]


@dataclass(frozen=True)
class ConeResult:
    """Outcome of one walk (``starts`` is the full array)."""

    starts: np.ndarray  # flat int64, n cells — old starts outside the cone
    cells_recomputed: int  # cells the walk placed
    cells_changed: int  # cells whose start differs from the old coloring
    levels_touched: int  # distinct keys placed (weight levels for GLF)
    spliced: bool  # the walk ended before the last key of the order


def propagate_cone(
    layout: StencilLayout,
    weights: np.ndarray,
    old_starts: np.ndarray,
    dirty: np.ndarray,
    budget: int,
    ranking: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> Optional[ConeResult]:
    """Walk the cone of ``dirty``; ``None`` once past ``budget`` cells.

    Parameters
    ----------
    layout:
        The grid's padded layout.
    weights:
        ``(n,)`` post-delta weights.
    old_starts:
        ``(n,)`` starts of the coloring being patched (not modified).
    dirty:
        Flat ids of the cells whose weight changed.
    budget:
        Most cells to place before giving up (the caller then falls back
        to a full recolor).
    ranking:
        A static order's :meth:`~repro.kernels.substrate.StencilLayout.ranking`
        (GLL, GZO); ``None`` walks GLF's heaviest-first order of
        ``weights``.
    """
    starts = layout.pad(old_starts, native.UNCOLORED)
    stats = native.cone_walk(
        starts, layout.pad(weights, 0), layout.interior[dirty], layout.deltas,
        layout.border, budget, ranking,
    )
    if stats is None:
        return None
    placed, changed, keys, last = stats
    top = weights.size - 1 if ranking is not None else -int(weights.min())
    return ConeResult(layout.inside(starts).flatten(), placed, changed, keys, last < top)
