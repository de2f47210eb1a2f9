"""Sparse forward propagation over GLF's weight order (the cone walk).

Model
-----
A greedy first-fit scan assigns every cell a start that is a pure function
of the ``(start, weight)`` intervals of its *predecessor* neighbors — the
neighbors visited earlier.  GLF visits the cells heaviest first, ties by
flat index (a stable ``argsort(-weights)``), so its predecessor relation
has an analytic *level function*: ``level = -weight``, the smaller flat
index preceding between adjacent cells of one level.  After a sparse
weight delta, the set of cells whose start can change is contained in the
forward closure of the seeds along predecessor→successor edges (the
*dependency cone*), and it can be walked level by level:

1. Seed the cells into per-level buckets (a min-heap of pending levels
   keeps the walk ordered).
2. Within a level the walk runs mini-rounds.  A candidate is *blocked*
   while a pending same-level smaller-index neighbor exists; the others
   are recomputed with :func:`repro.kernels.wavefront.first_fit_intervals`,
   masking non-predecessor neighbors to ``UNCOLORED`` — exactly the
   operands the full kernel's scan sees for that cell, so recomputed
   values are bit-identical to a from-scratch recolor by induction over
   the scan order.
3. A candidate has *moved* when its start changed **or** its weight is
   dirty (successors observe the interval ``[start, start + weight)``, so
   a weight change propagates even with an unchanged start).  A mover's
   later-level neighbors are pushed into their buckets, and its same-level
   greater-index neighbors (re-)join this level's rounds.  The within-level
   dependency relation is acyclic by index, so the rounds terminate; a
   cell recomputed before a same-level predecessor moved is simply
   recomputed again with the final operands, preserving bit-identity.
   Untouched cells keep their old start.
4. The walk reaches its fixpoint when the heap drains — the cone's output
   has rejoined the old coloring and the remaining grid is never visited.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.kernels.wavefront import UNCOLORED, first_fit_intervals

__all__ = ["ConeResult", "propagate_cone"]

#: Extended-slot level for the out-of-grid pad cell: never a predecessor,
#: never a pushable successor.
_PAD_LEVEL = np.int64(1) << 60


@dataclass(frozen=True)
class ConeResult:
    """Outcome of one cone walk or suffix pass (``starts`` is the full array)."""

    starts: np.ndarray  # flat int64, n cells — old starts outside the cone
    cells_recomputed: int  # first-fit evaluations performed
    cells_changed: int  # cells whose start differs from the old coloring
    levels_touched: int  # distinct wavefront levels visited
    spliced: bool  # fixpoint hit before the grid's last level


def propagate_cone(
    gather: Callable[[np.ndarray], np.ndarray],
    old_starts: np.ndarray,
    new_weights: np.ndarray,
    seeds: np.ndarray,
    dirty_mask: np.ndarray,
    budget: int,
) -> Optional[ConeResult]:
    """Walk the GLF dependency cone of ``seeds``; ``None`` once past ``budget``.

    Parameters
    ----------
    gather:
        Maps a flat index array ``(b,)`` to its ``(b, d)`` neighbour ids,
        *extended* to ``[0, n]`` — ``n`` is the pad slot for out-of-grid
        neighbours.  Stencil callers pass
        :meth:`~repro.kernels.substrate.StencilLayout.neighbors`, which
        reads ``unpad[interior[cells][:, None] + deltas]``.
    old_starts:
        ``(n,)`` starts of the coloring being patched (not modified).
    new_weights:
        ``(n,)`` post-delta weights; they also give the levels.
    seeds:
        Flat indices whose start or predecessor set may have changed
        (the dirty cells and their neighbors).
    dirty_mask:
        ``(n,)`` bool, true where the weight changed — dirty cells always
        count as moved (their interval end shifted even if the start held).
    budget:
        Maximum first-fit evaluations before giving up (the caller then
        falls back to a full recolor).
    """
    n = old_starts.size
    levels_ext = np.empty(n + 1, dtype=np.int64)
    np.negative(new_weights, out=levels_ext[:-1])
    levels_ext[-1] = _PAD_LEVEL
    starts_ext = np.empty(n + 1, dtype=np.int64)
    starts_ext[:-1] = old_starts
    starts_ext[-1] = UNCOLORED
    weights_ext = np.empty(n + 1, dtype=np.int64)
    weights_ext[:-1] = new_weights
    weights_ext[-1] = 0

    buckets: dict[int, list[np.ndarray]] = {}
    heap: list[int] = []

    def push(idx: np.ndarray) -> None:
        if idx.size == 0:
            return
        lv = levels_ext[idx]
        order = np.argsort(lv, kind="stable")
        idx, lv = idx[order], lv[order]
        bounds = np.flatnonzero(np.diff(lv)) + 1
        chunk_heads = np.concatenate((np.zeros(1, dtype=np.int64), bounds))
        for pos, chunk in zip(chunk_heads, np.split(idx, bounds)):
            level = int(lv[pos])
            bucket = buckets.get(level)
            if bucket is None:
                buckets[level] = [chunk]
                heapq.heappush(heap, level)
            else:
                bucket.append(chunk)

    def recompute(cand: np.ndarray, level: int, rows: np.ndarray) -> np.ndarray:
        """First-fit ``cand`` against its predecessor neighbors; new starts."""
        lv = levels_ext[rows]
        pred = (lv < level) | ((lv == level) & (rows < cand[:, None]))
        return first_fit_intervals(
            np.where(pred, starts_ext[rows], UNCOLORED),
            np.where(pred, weights_ext[rows], 0),
            weights_ext[cand],
        )

    push(np.asarray(seeds, dtype=np.int64))

    # Pending-membership scratch for the rounds, allocated once: entries
    # are set for a level's pending cells and cleared as they are
    # computed, so the mask is all-False again when the level finishes.
    pending_ext = np.zeros(n + 1, dtype=bool)

    max_level = int(levels_ext[:-1].max()) if n else 0
    recomputed = 0
    levels_touched = 0
    last_level = -1
    while heap:
        level = heapq.heappop(heap)
        pending = np.unique(np.concatenate(buckets.pop(level)))
        levels_touched += 1
        last_level = level
        pending_ext[pending] = True
        later: list[np.ndarray] = []
        while pending.size:
            rows = gather(pending)
            blocked = (
                (levels_ext[rows] == level)
                & (rows < pending[:, None])
                & pending_ext[rows]
            ).any(axis=1)
            cand, rows = pending[~blocked], rows[~blocked]
            pending = pending[blocked]
            pending_ext[cand] = False
            recomputed += cand.size
            if recomputed > budget:
                return None
            new = recompute(cand, level, rows)
            moved = (new != starts_ext[cand]) | dirty_mask[cand]
            starts_ext[cand] = new
            succ = rows[moved]
            succ_levels = levels_ext[succ]
            keep_later = succ[(succ < n) & (succ_levels > level)]
            if keep_later.size:
                later.append(keep_later)
            # The pad slot's level is never a real one.
            same = succ[(succ_levels == level) & (succ > cand[moved][:, None])]
            if same.size:
                # Same-level successors (re-)enter this level's rounds;
                # a too-early computation is redone with final operands.
                pending = np.union1d(pending, same)
                pending_ext[pending] = True
        if later:
            push(np.unique(np.concatenate(later)))

    flat = starts_ext[:-1]
    return ConeResult(
        starts=flat,
        cells_recomputed=recomputed,
        cells_changed=int(np.count_nonzero(flat != old_starts)),
        levels_touched=levels_touched,
        spliced=last_level < max_level,
    )
