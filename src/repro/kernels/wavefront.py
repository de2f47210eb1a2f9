"""Wavefront-batched first-fit coloring kernels.

The reference :func:`~repro.core.greedy_engine.greedy_color` visits one vertex
per Python iteration, gathering its neighbor intervals with list appends.  On
a stencil the neighborhood is fixed and regular, so the same scan can run in
strided batches: partition the visit order into *wavefronts* — batches whose
members are pairwise non-adjacent and respect the order's dependency DAG (see
:meth:`~repro.kernels.substrate.Substrate.wavefront_for`) — and, per batch,

1. gather all neighbor starts/weights with one fancy-indexed read at
   ``deltas + p`` in the shape's padded
   :class:`~repro.kernels.substrate.StencilLayout` (no table, no mask),
   laid out column-major — one row per stencil offset — so every later
   step is a handful of vector ops over the whole batch,
2. sort the intervals along the offset axis (the paper's sort step, for
   the whole batch at once): each interval is one ``int64`` word with its
   start in the high half and its end in the low half, so one in-place
   ``sort`` orders them by lower end and needs no ``argsort`` or reorder,
3. replace the paper's sequential scan with its closed form: the frontier
   before the ``c``-th sorted interval is the prefix maximum of the earlier
   interval ends, and it never decreases, so the first fit is the smallest
   frontier over the positions whose gap is wide enough, capped by the
   largest end — one ``np.maximum.accumulate`` and one masked ``min`` per
   batch instead of one Python iteration per interval.  Ignored slots
   (``UNCOLORED`` or zero-weight) get an end of at most 0.

Because every vertex still sees exactly the neighbors that precede it in the
order — colored — and none that follow it, the result is *bit-identical* to
the sequential reference for every permutation, which the differential tests
assert.  Empty (zero-weight) intervals always land at 0, also matching the
reference.

:func:`first_fit_wavefronts` is the one batch loop: the greedy and recolor
kernels here and :func:`repro.kernels.halo.gll_suffix` (the tiler's band
kernel and the incremental engine's GLL delta pass) all run it.  A GLL
pass gathers only the earlier half of the stencil
(``StencilLayout.earlier_deltas``: 4 of 8, 13 of 26): under the level
schedule a cell's start depends on its earlier neighbours alone, so its
later-level neighbours — still ``UNCOLORED`` in a fresh pass, anything at
all in a suffix pass — are never read.  The recolor pass
and Kahn schedules always gather the full stencil, since there a later
neighbour's old start constrains the cell.  The loop computes in
``int32`` whenever a guard on the weights and given starts shows that no
value can reach its void, and in ``int64`` otherwise.
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np

from repro.kernels.substrate import StencilLayout, Substrate, get_substrate

#: Mirrors :data:`repro.core.greedy_engine.UNCOLORED` (kept literal to avoid
#: an import cycle; asserted equal in the tests).
UNCOLORED = -1

#: Stands in for ``UNCOLORED`` (and for zero weights) inside
#: :func:`first_fit_wavefronts`, per loop dtype: below every real start, and
#: negative when added to any weight, to any start or to itself, without
#: overflowing the dtype.  The ``int32`` void holds that only for starts and
#: weights below ``2**29``, which the loop's guard ensures.
_VOID = {np.int64: -(1 << 61), np.int32: -(1 << 29)}

#: Indices of a packed interval's end (low) and start (high) word in the
#: ``int32`` view of its ``int64``.
_END, _START = (0, 1) if sys.byteorder == "little" else (1, 0)


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


def _first_fit_packed(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`_first_fit_columns` on column-major ``(d, b)`` packed
    intervals, ``start << 32 | uint32(end)``, ignored slots at ``end <= 0``.

    Sorting the packed words sorts by lower end (ties by end, which the
    scan ignores), so the intervals need no argsort and no reordering
    ``take``: their ends and lower ends are the two halves of ``g`` seen
    as ``int32``.  Sorts ``g`` in place; returns ``int32``.
    """
    g.sort(axis=0)
    d, b = g.shape
    words = g.view(np.int32).reshape(d, b, 2)
    ends = np.empty((d + 1, b), dtype=np.int32)
    ends[0] = 0
    ends[1:] = words[..., _END]
    np.maximum.accumulate(ends, axis=0, out=ends)
    # Where the gap before an interval is too narrow its frontier does not
    # count: put the largest end there (broadcast along each row).
    frontier = ends[:-1]
    np.putmask(frontier, words[..., _START] - frontier < w, ends[-1])
    return frontier.min(axis=0)


def first_fit_wavefronts(
    layout: StencilLayout,
    weights: np.ndarray,
    verts: np.ndarray,
    ptr: np.ndarray,
    starts: Optional[np.ndarray] = None,
    deltas: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Color every batch of a ``(verts, ptr)`` schedule; flat starts.

    ``weights`` and ``starts`` (initial values, default all ``UNCOLORED``)
    are flat per-cell arrays of ``layout``'s grid; cells outside the
    schedule keep their ``starts`` entry.

    ``deltas`` (default ``layout.deltas``) are the offsets gathered per
    cell.  Passing ``layout.earlier_deltas`` is exact for a GLL level
    schedule (of the grid or of a sub-grid of it) whenever every earlier
    neighbour of a scheduled cell holds its final start when the cell is
    placed: scheduled in an earlier batch, or not scheduled and already
    final in ``starts``.  Later neighbours are not gathered, as the
    from-scratch scan sees them uncolored.  That covers a fresh pass from
    all-``UNCOLORED`` starts and a pass over the suffix of the grid from
    an outer-axis index on (:func:`repro.kernels.halo.gll_suffix`).

    Inside the pass an uncolored start is ``_VOID`` and a zero weight
    gathers as ``_VOID``, so a neighbour's upper end is one add,
    ``start + weight``, and every ignored slot's is negative — ignored like
    the ``0`` that :func:`first_fit_intervals` gives it.  A ``_VOID`` lower
    end never fits, as ``UNCOLORED`` never does.

    The pass runs in ``int32`` (void ``-2**29``) when
    ``len(deltas) * max(weights) < 2**29`` and, given ``starts``,
    ``max(starts) + max(weights) < 2**29``; otherwise in ``int64`` (void
    ``-2**61``).  The guard suffices: each sorted interval moves the
    scan's frontier up by less than ``w`` plus its own width, so a new
    start is below ``2 * len(deltas) * max(weights) < 2**30``; every end
    stays below ``3 * 2**29``, every lower end minus a frontier above
    ``-2**31``, and a given start plus the void (a zero-weight cell's
    stale start) at most 0.  The output is ``int64`` either way.

    Under the guard every cell's interval is one ``int64`` word, its start
    in the high half and its end in the low one (:func:`_first_fit_packed`),
    so a batch is one gather, one in-place sort and two ``int32`` scatters
    of its new starts and ends.  Past the guard the loop keeps separate
    padded starts and weights (:func:`_first_fit_columns`).
    """
    deltas = (layout.deltas if deltas is None else deltas)[:, None]
    weights = np.asarray(weights)
    top = int(weights.max(initial=0))
    reach = len(deltas) * top
    if starts is not None:
        starts = np.asarray(starts, dtype=np.int64)
        reach = max(reach, int(starts.max(initial=0)) + top)
    dtype = np.int32 if reach < -_VOID[np.int32] else np.int64
    void = _VOID[dtype]
    weights_void = layout.pad(np.where(weights > 0, weights, void), void, dtype)
    padded = layout.interior[verts]
    voided = weights_void[padded]  # scheduled cells' weights, or the void
    placed = np.maximum(voided, 0)
    ptr = ptr.tolist()
    if dtype is np.int32:
        # Both halves are written through the int32 view, so building the
        # packed state takes no int64 temporaries.
        packed = np.empty(len(layout.unpad), dtype=np.int64)
        words = packed.view(np.int32).reshape(-1, 2)
        starts_half, ends_half = words[:, _START], words[:, _END]
        starts_half[:] = void
        if starts is not None:
            starts_half[layout.interior] = np.where(starts == UNCOLORED, void, starts)
        np.add(starts_half, weights_void, out=ends_half)
        del weights_void
        for b in range(len(ptr) - 1):
            batch = padded[ptr[b] : ptr[b + 1]]
            new = _first_fit_packed(packed[deltas + batch], placed[ptr[b] : ptr[b + 1]])
            starts_half[batch] = new
            ends_half[batch] = new + voided[ptr[b] : ptr[b + 1]]
        out = starts_half[layout.interior]
    else:
        starts_pad = layout.pad(
            void if starts is None else np.where(starts == UNCOLORED, void, starts), void, dtype
        )
        cols = np.arange(np.diff(ptr).max(initial=0))
        for b in range(len(ptr) - 1):
            batch = padded[ptr[b] : ptr[b + 1]]
            rows = deltas + batch
            lo = starts_pad[rows]
            starts_pad[batch] = _first_fit_columns(
                lo, lo + weights_void[rows], placed[ptr[b] : ptr[b + 1]], cols
            )
        out = starts_pad[layout.interior]
    np.maximum(out, UNCOLORED, out=out)
    return out.astype(np.int64, copy=False)


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
    generic graphs).  The line-by-line order gathers only the earlier half
    of the stencil.
    """
    if substrate is None:
        substrate = get_substrate(instance.geometry)
    order = np.asarray(order, dtype=np.int64)
    verts, ptr = substrate.wavefront_for(order)
    layout = substrate.layout
    fresh_gll = _is_line_by_line(order, substrate.geometry.shape)
    deltas = layout.earlier_deltas if fresh_gll else None
    return first_fit_wavefronts(layout, instance.weights, verts, ptr, deltas=deltas)


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
