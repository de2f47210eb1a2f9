"""First-fit coloring and recoloring passes over a stencil's padded layout.

The reference :func:`~repro.core.greedy_engine.greedy_color` visits one
vertex per Python iteration, gathering its neighbor intervals from the CSR
adjacency with list appends.  On a stencil the neighborhood is fixed and
regular, so every pass here hands its whole visit order to one call of the
compiled loop (:func:`repro.kernels.native.first_fit`): per cell, read the
neighbours at ``p + deltas`` in the shape's padded
:class:`~repro.kernels.substrate.StencilLayout` (no table, no bounds
mask), and place it at the lowest start that misses their intervals —
the paper's sort-and-scan answer, found in C by a branch-free sweep with
no sort.  The visit is sequential, so the result is
*bit-identical* to the reference for every permutation, which the
differential tests assert; empty (zero-weight) intervals land at 0.

:func:`first_fit_pass` is the one pass: the greedy and recolor kernels
here and :func:`repro.kernels.halo.gll_suffix` (the tiler's band kernel)
run it.  A fresh GLL pass reads only the earlier half of the stencil
(``StencilLayout.earlier_deltas``: 4 of 8, 13 of 26): under the
line-by-line scan a cell's later neighbours are still ``UNCOLORED`` when
it is placed, so reading them is wasted.  Recolor passes read the full
stencil, since there a later neighbour's old start constrains the cell.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels import native
from repro.kernels.substrate import StencilLayout, Substrate, get_substrate

#: Mirrors :data:`repro.core.greedy_engine.UNCOLORED` (asserted equal in
#: the tests).
UNCOLORED = native.UNCOLORED


def first_fit_pass(
    layout: StencilLayout,
    weights: np.ndarray,
    cells: np.ndarray,
    starts: Optional[np.ndarray] = None,
    *,
    fresh: bool = False,
    deltas: Optional[np.ndarray] = None,
) -> np.ndarray:
    """First fit of the padded ids ``cells``, in order; flat starts.

    ``weights`` and ``starts`` (initial values, default all ``UNCOLORED``)
    are flat per-cell arrays of ``layout``'s grid; cells not visited keep
    their ``starts`` entry.  A visited cell reads each neighbour's value
    as it stands when the cell is placed: the new start of one visited
    before it, else the initial one — ``UNCOLORED`` for the visited cells
    under ``fresh`` (a suffix of a from-scratch scan), their ``starts``
    entry otherwise (a recolor pass).

    ``deltas`` (default ``layout.deltas``) are the offsets read per cell.
    Passing ``layout.earlier_deltas`` is exact for a fresh suffix of the
    line-by-line order: the cells it skips follow the visited cell in the
    order, so the scan reads them as ``UNCOLORED`` anyway.
    """
    weights_pad = layout.pad(weights, 0)
    starts_pad = layout.pad(UNCOLORED if starts is None else starts, UNCOLORED)
    if fresh:
        starts_pad[cells] = UNCOLORED
    native.first_fit(
        starts_pad, weights_pad, cells, layout.deltas if deltas is None else deltas
    )
    return layout.inside(starts_pad).flatten()


def _is_line_by_line(order: np.ndarray, shape: tuple[int, ...]) -> bool:
    """Whether ``order`` is the line-by-line (GLL) scan of ``shape``.

    The scan runs axis 0 fastest over C-order flat ids, so reshaped to the
    reversed shape and transposed it reads ``0, 1, 2, ...`` in C order.
    """
    ids = np.arange(order.size, dtype=np.int64).reshape(shape)
    return np.array_equal(order.reshape(shape[::-1]).T, ids)


def wavefront_greedy_color(
    instance, order: np.ndarray, substrate: Optional[Substrate] = None
) -> np.ndarray:
    """Starts of the first-fit coloring of ``instance`` in ``order``.

    Bit-identical to the reference ``greedy_color`` loop for any permutation;
    requires a stencil geometry (callers fall back to the reference on
    generic graphs).  The line-by-line order reads only the earlier half
    of the stencil.
    """
    if substrate is None:
        substrate = get_substrate(instance.geometry)
    order = np.asarray(order, dtype=np.int64)
    layout = substrate.layout
    fresh_gll = _is_line_by_line(order, substrate.geometry.shape)
    deltas = layout.earlier_deltas if fresh_gll else None
    return first_fit_pass(layout, instance.weights, layout.interior[order], deltas=deltas)


def wavefront_recolor_pass(
    instance,
    starts: np.ndarray,
    order: np.ndarray,
    substrate: Optional[Substrate] = None,
) -> np.ndarray:
    """Re-run of first fit on an already-colored instance, in ``order``.

    When a cell is recolored its earlier-order neighbors hold their *new*
    starts and its later-order neighbors their *old* ones — exactly the
    state the sequential ``greedy_recolor_pass`` sees.  ``starts`` may hold
    ``UNCOLORED`` entries, read as the reference reads them.  Returns a
    new starts array.
    """
    if substrate is None:
        substrate = get_substrate(instance.geometry)
    cells = substrate.layout.interior[np.asarray(order, dtype=np.int64)]
    return first_fit_pass(substrate.layout, instance.weights, cells, starts)
