"""First-fit coloring and recoloring passes over a stencil's padded layout.

The reference :func:`~repro.core.greedy_engine.greedy_color` visits one
vertex per Python iteration, gathering its neighbor intervals from the CSR
adjacency with list appends.  On a stencil the neighborhood is fixed and
regular, so every pass here hands its whole visit order to one call of the
compiled loop (:func:`repro.kernels.native.first_fit`): per cell, read the
neighbours at ``p + deltas`` in the shape's padded
:class:`~repro.kernels.substrate.StencilLayout` (no table, no bounds
mask), sort their intervals by lower end and scan once — the paper's
sort-and-scan, in C.  The visit is sequential, so the result is
*bit-identical* to the reference for every permutation, which the
differential tests assert; empty (zero-weight) intervals land at 0.

:func:`first_fit_pass` is the one pass: the greedy and recolor kernels
here, :func:`repro.kernels.halo.gll_suffix` (the tiler's band kernel and
the incremental engine's GLL deltas) and the engine's GZO delta pass all
run it.  A fresh GLL pass reads only the earlier half of the stencil
(``StencilLayout.earlier_deltas``: 4 of 8, 13 of 26): under the
line-by-line scan a cell's later neighbours are still ``UNCOLORED`` when
it is placed, so reading them is wasted.  Recolor passes read the full
stencil, since there a later neighbour's old start constrains the cell.

:func:`first_fit_intervals` is a vectorized first fit over pre-gathered
neighbourhoods, for the incremental cone walk.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels import native
from repro.kernels.substrate import StencilLayout, Substrate, get_substrate

#: Mirrors :data:`repro.core.greedy_engine.UNCOLORED` (asserted equal in
#: the tests).
UNCOLORED = native.UNCOLORED


def first_fit_intervals(
    s: np.ndarray, wn: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """First-fit starts from pre-gathered neighbor intervals.

    ``s``/``wn`` are ``(b, d)`` neighbor starts and weights (``UNCOLORED``
    or zero-weight slots are ignored); ``w`` is the ``(b,)`` weights being
    placed.  Rows must be pairwise non-adjacent for the batch semantics to
    replay the sequential scan.

    The reference scan keeps a running frontier ``cur`` (the maximum end seen
    so far, starting at 0) and returns ``cur`` at the first sorted interval
    whose lower end leaves a gap of at least ``w``, or the maximum end if no
    interval does.  With ``frontier[c]`` the prefix maximum of ends *before*
    sorted position ``c``, that is ``frontier`` at the first fitting
    position — and since the frontier never decreases, the *smallest*
    frontier over fitting positions — capped by ``max(hi)`` for rows with no
    gap.  Ignored slots get ``hi = 0``, so they never raise the frontier,
    and keep their raw lower end: one that fits (an ``UNCOLORED`` ``-1``
    never does) sees the same frontier as the next real interval, whose
    lower end is no smaller, or as the end of the list.

    Exposed for the incremental cone walk, which masks non-predecessor
    neighbours before the fit.
    """
    b, d = s.shape
    if d == 0:
        return np.zeros(b, dtype=np.int64)
    # Work column-major, ``(d, b)``, so the scan below runs as ``d`` vector
    # ops over the batch.
    s = np.ascontiguousarray(s.T)
    hi = np.where((s != UNCOLORED) & (wn.T > 0), s + wn.T, 0)
    return _first_fit_columns(s, hi, w, np.arange(b))


def _first_fit_columns(
    lo: np.ndarray, hi: np.ndarray, w: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """:func:`first_fit_intervals` on column-major ``(d, b)`` lower and
    upper ends, ignored slots at ``hi <= 0``; ``cols`` starts with
    ``arange(b)``.  Computes in the dtype of ``hi``."""
    d, b = lo.shape
    # Sort neighbor intervals by lower end.  Ties need no secondary key: the
    # scan's outcome at a tied lower end is independent of the tie order.
    flat = lo.argsort(axis=0)
    flat *= b
    flat += cols[:b]
    lo = lo.take(flat)
    # ends[c] = max(0, hi[0..c-1]) over the sorted intervals.
    ends = np.empty((d + 1, b), dtype=hi.dtype)
    ends[0] = 0
    hi.take(flat, out=ends[1:])
    np.maximum.accumulate(ends, axis=0, out=ends)
    frontier = ends[:-1]
    return np.minimum.reduce(np.where(lo - frontier >= w, frontier, ends[-1]), axis=0)


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
    return starts_pad[layout.interior]


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
