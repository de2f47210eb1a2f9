"""Wavefront-batched first-fit coloring kernels.

The reference :func:`~repro.core.greedy_engine.greedy_color` visits one vertex
per Python iteration, gathering its neighbor intervals with list appends.  On
a stencil the neighborhood is fixed and regular, so the same scan can run in
strided batches: partition the visit order into *wavefronts* — batches whose
members are pairwise non-adjacent and respect the order's dependency DAG (see
:meth:`~repro.kernels.substrate.Substrate.wavefront_for`) — and, per batch,

1. gather all neighbor starts/ends with one fancy-indexed read at
   ``p + deltas`` in the shape's padded
   :class:`~repro.kernels.substrate.StencilLayout` (no table, no mask),
2. ``np.argsort`` the intervals along ``axis=1`` (the paper's sort step, for
   the whole batch at once),
3. replace the paper's sequential scan with its closed form: the frontier
   before the ``c``-th sorted interval is the prefix maximum of the earlier
   interval ends, so the first fit is the frontier at the first position
   whose gap is wide enough — one ``np.maximum.accumulate`` and one
   ``argmax`` per batch instead of one Python iteration per interval.

Because every vertex still sees exactly the neighbors that precede it in the
order — colored — and none that follow it, the result is *bit-identical* to
the sequential reference for every permutation, which the differential tests
assert.  Empty (zero-weight) intervals always land at 0, also matching the
reference.

:func:`first_fit_wavefronts` is the one batch loop: the greedy and recolor
kernels here and the tiler's region kernel (:mod:`repro.kernels.halo`) all
run it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.substrate import StencilLayout, Substrate, get_substrate

#: Mirrors :data:`repro.core.greedy_engine.UNCOLORED` (kept literal to avoid
#: an import cycle; asserted equal in the tests).
UNCOLORED = -1

#: Sentinel start pushing invalid neighbor slots past every real interval in
#: the per-batch sort; large enough that ``_BIG - cur >= w`` always holds, so
#: the scan terminates on the first padding column exactly like the reference
#: scan terminates at the end of its neighbor list.
_BIG = np.int64(1) << 62


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
    whose lower end leaves a gap of at least ``w``.  Equivalently: with
    ``frontier[c]`` the prefix maximum of ends *before* sorted position
    ``c``, the answer is ``frontier[c*]`` for the first ``c*`` with
    ``lo[c*] - frontier[c*] >= w``, or the total maximum end if no interval
    leaves a gap.  The ``_BIG`` padding behaves like the end of the neighbor
    list: its gap is unbounded, so rows with spare padding always "fit" there
    at exactly the frontier the reference would return.

    Exposed for the incremental cone walk, which masks non-predecessor
    neighbours before the fit.
    """
    if s.shape[1] == 0:
        return np.zeros(len(s), dtype=np.int64)
    valid = (s != UNCOLORED) & (wn > 0)
    lo = np.where(valid, s, _BIG)
    hi = np.where(valid, s + wn, _BIG)
    # Sort neighbor intervals by lower end.  Ties need no secondary key: the
    # scan's outcome at a tied lower end is independent of the tie order.
    cols = np.argsort(lo, axis=1, kind="stable")
    lo = np.take_along_axis(lo, cols, axis=1)
    hi = np.take_along_axis(hi, cols, axis=1)
    frontier = np.empty_like(hi)
    frontier[:, 0] = 0
    np.maximum.accumulate(hi[:, :-1], axis=1, out=frontier[:, 1:])
    fits = (lo - frontier) >= np.asarray(w)[:, None]
    first = np.argmax(fits, axis=1)
    out = np.take_along_axis(frontier, first[:, None], axis=1)[:, 0]
    # Fully valid rows may have no gap at all: the fit is past the last
    # interval, at the running maximum of every end.
    no_gap = ~np.take_along_axis(fits, first[:, None], axis=1)[:, 0]
    if no_gap.any():
        out[no_gap] = np.maximum(frontier[no_gap, -1], hi[no_gap, -1])
    return out


def first_fit_wavefronts(
    layout: StencilLayout,
    weights: np.ndarray,
    verts: np.ndarray,
    ptr: np.ndarray,
    starts: Optional[np.ndarray] = None,
    preset_mask: Optional[np.ndarray] = None,
    preset_starts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Color every batch of a ``(verts, ptr)`` schedule; flat starts.

    ``weights``, ``starts`` (initial values, default all ``UNCOLORED``) and
    the optional presets are flat per-cell arrays of ``layout``'s grid.
    Cells under ``preset_mask`` are not colored: their ``preset_starts``
    value is written when their batch runs, so it is visible to exactly
    the cells scheduled after it.
    """
    deltas = layout.deltas
    starts_pad = layout.pad(UNCOLORED if starts is None else starts, UNCOLORED)
    weights_pad = layout.pad(weights, 0)
    padded = layout.interior[verts]
    for b in range(len(ptr) - 1):
        batch = padded[ptr[b] : ptr[b + 1]]
        if preset_mask is not None:
            flat = verts[ptr[b] : ptr[b + 1]]
            m = preset_mask[flat]
            starts_pad[batch[m]] = preset_starts[flat[m]]
            batch = batch[~m]
        rows = batch[:, None] + deltas
        starts_pad[batch] = first_fit_intervals(
            starts_pad[rows], weights_pad[rows], weights_pad[batch]
        )
    return starts_pad[layout.interior]


def wavefront_greedy_color(
    instance, order: np.ndarray, substrate: Optional[Substrate] = None
) -> np.ndarray:
    """Starts of the first-fit coloring of ``instance`` in ``order``.

    Bit-identical to the reference ``greedy_color`` loop for any permutation;
    requires a stencil geometry (callers fall back to the reference on
    generic graphs).
    """
    if substrate is None:
        substrate = get_substrate(instance.geometry)
    verts, ptr = substrate.wavefront_for(np.asarray(order, dtype=np.int64))
    return first_fit_wavefronts(substrate.layout, instance.weights, verts, ptr)


def wavefront_recolor_pass(
    instance,
    starts: np.ndarray,
    order: np.ndarray,
    substrate: Optional[Substrate] = None,
) -> np.ndarray:
    """Batched re-run of first fit on an already-colored instance.

    The wavefront argument carries over unchanged: when a batch is recolored,
    its members' earlier-order neighbors hold their *new* starts and the
    later-order neighbors their *old* ones — exactly the state the sequential
    ``greedy_recolor_pass`` sees.  Returns a new starts array.
    """
    if substrate is None:
        substrate = get_substrate(instance.geometry)
    verts, ptr = substrate.wavefront_for(np.asarray(order, dtype=np.int64))
    return first_fit_wavefronts(substrate.layout, instance.weights, verts, ptr, starts)
