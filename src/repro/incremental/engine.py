"""Policy layer of the dirty-region recolor engine: :func:`recolor_grid`.

This module decides, per algorithm, how a weight delta is patched and
when to give up:

Supported algorithms
--------------------
``GLL``
    No cone walk: one band pass over the *suffix* of the grid.  Under the
    line-by-line scan a cell's earlier neighbours never sit at a larger
    outer-axis index (the last axis: a column in 2D, a plane in 3D), and a
    first-fit change cascades to the last column almost always.  So the
    pass recolors every cell from the first dirty outer index ``c0`` to
    the end with :func:`repro.kernels.halo.gll_suffix` (the tiler's band
    kernel resumes the scan the same way), gathering only the earlier
    half of the stencil from the base starts: an earlier neighbour is
    either before ``c0`` (unchanged, so final) or already recomputed.
    Its cost is at most one kernel pass, so GLL has no cone budget and
    never falls back.
``GZO``
    No cone walk either: one pass over the *suffix* of the Morton order's
    Kahn schedule.  The order does not depend on the weights, so its
    schedule ``(verts, ptr)`` is cached per shape in the substrate.  Kahn
    levels respect every predecessor edge, so every cell below ``L0``,
    the level of the first dirty cell in the schedule, is unchanged.  The
    pass resets the scheduled cells from ``ptr[L0]`` on to ``UNCOLORED``
    and runs the batch loop over the remaining levels with the full
    stencil: a later neighbour reads as uncolored, as in a fresh scan.
    Like GLL's pass it costs at most one kernel pass: no budget, no
    fallback.
``GLF``
    The cone walk (:mod:`repro.incremental.cone`).  The heaviest-first
    order is a stable ``argsort(-weights)``, so the walk derives its
    levels from the new weights: no schedule, no argsort, no Kahn rebuild
    per delta.  A weight delta can only move dirty cells relative to
    their neighbors — two clean cells never swap — so seeds are the dirty
    cells **plus their neighbors** (whose predecessor sets may have gained
    or lost a dirty cell).

Everything else — GSL's cascading smallest-last removal can reorder distant
pairs, BD/BDP are not single-pass greedy scans — takes the always-correct
fallback: a full from-scratch recolor through the ordinary registry path,
still bit-identical by definition.  GLF also falls back once its cone
exceeds ``max_cone_fraction`` of the grid (``"cone-budget"``), at which
point one monolithic kernel pass is cheaper than continuing the walk; a
delta whose seeds alone exceed the budget falls back without walking at
all.

Metrics (on the context registry): ``recolor_calls``, ``recolor_cone_cells``
(cells recomputed by GLF cone walks and the GLL/GZO suffix passes),
``recolor_fallbacks``, and the ``recolor_splice_seconds`` latency histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional, Sequence, Union

import numpy as np

from repro.incremental.cone import ConeResult, propagate_cone
from repro.kernels.halo import gll_suffix
from repro.kernels.substrate import (
    StencilLayout,
    get_substrate,
    shared_geometry_2d,
    shared_geometry_3d,
)
from repro.kernels.wavefront import UNCOLORED, first_fit_wavefronts

__all__ = [
    "SUPPORTED_ALGORITHMS",
    "RecolorOutcome",
    "RecolorValidationError",
    "full_recolor",
    "recolor_grid",
]

#: Algorithms patched without a full recolor: GLL and GZO by one suffix
#: pass, GLF by the cone walk.
SUPPORTED_ALGORITHMS = frozenset({"GLL", "GZO", "GLF"})


class RecolorValidationError(AssertionError):
    """``validate=True`` caught an incremental-vs-full divergence."""


@dataclass(frozen=True)
class RecolorOutcome:
    """What one :func:`recolor_grid` call did, with delta provenance."""

    starts: np.ndarray  # grid-shaped int64 starts of the patched coloring
    maxcolor: int
    algorithm: str
    mode: str  # "incremental" | "fallback"
    cells_dirty: int
    cells_recomputed: int  # 0 in fallback mode (the kernel touched all)
    cells_changed: int  # starts that differ from the base coloring
    levels_touched: int
    spliced: bool  # cone rejoined the old coloring before the last level
    fallback_reason: Optional[str]  # "unsupported-algorithm" | "cone-budget"
    elapsed: float

    def stats(self) -> dict:
        """The JSON-ready provenance block (facade, service, CLI)."""
        return {
            "mode": self.mode,
            "algorithm": self.algorithm,
            "cells_dirty": self.cells_dirty,
            "cells_recomputed": self.cells_recomputed,
            "cells_changed": self.cells_changed,
            "levels_touched": self.levels_touched,
            "spliced": self.spliced,
            "fallback_reason": self.fallback_reason,
            "elapsed": self.elapsed,
        }


def _as_grid(name: str, array, shape=None) -> np.ndarray:
    grid = np.ascontiguousarray(array, dtype=np.int64)
    if grid.ndim not in (2, 3):
        raise ValueError(f"{name} must be 2D or 3D, got {grid.ndim}D")
    if shape is not None and grid.shape != shape:
        raise ValueError(f"{name} shape {grid.shape} != weights shape {shape}")
    if name == "weights" and grid.size and grid.min() < 0:
        raise ValueError("weights must be non-negative")
    return grid


def _instance_for(weights: np.ndarray):
    from repro.core.problem import IVCInstance

    if weights.ndim == 2:
        return IVCInstance.from_grid_2d(weights, name="recolor")
    return IVCInstance.from_grid_3d(weights, name="recolor")


def full_recolor(weights: np.ndarray, algorithm: str, context=None) -> np.ndarray:
    """Grid-shaped starts of a from-scratch recolor (the ground truth)."""
    from repro.core.algorithms.registry import color_with

    weights = _as_grid("weights", weights)
    coloring = color_with(_instance_for(weights), algorithm, context=context)
    return np.asarray(coloring.starts, dtype=np.int64).reshape(weights.shape)


def _normalize_dirty(
    dirty: Union[np.ndarray, Sequence[int]], n: int
) -> np.ndarray:
    arr = np.asarray(dirty)
    if arr.size and arr.dtype.kind not in "iu":
        # Casting would silently turn a boolean mask into the indices {0, 1}.
        raise ValueError(
            f"dirty must be integer flat indices, got dtype {arr.dtype}; "
            "pass np.flatnonzero(mask) for a boolean mask"
        )
    # Sort and drop repeats: numpy 2's hash-based ``np.unique`` is ~25x
    # slower on tens of thousands of indices.
    idx = np.sort(arr.astype(np.int64, copy=False).ravel())
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError(f"dirty indices out of range [0, {n})")
    return idx[np.diff(idx, prepend=-1) > 0]


def _layout(shape: tuple[int, ...], context) -> StencilLayout:
    """The shape's layout, built once per shape in the context's substrate."""
    geometry = (shared_geometry_2d if len(shape) == 2 else shared_geometry_3d)(
        *shape, context=context
    )
    return get_substrate(geometry, context=context).layout


def _gll_suffix_pass(
    weights: np.ndarray, base: np.ndarray, dirty_idx: np.ndarray, layout: StencilLayout
) -> ConeResult:
    """GLL starts recomputed from the first dirty outer-axis index onward."""
    outer = weights.shape[-1]
    c0 = int((dirty_idx % outer).min())
    old = base.ravel()
    starts, batches = gll_suffix(layout, weights, old, c0)
    return ConeResult(
        starts=starts,
        cells_recomputed=weights.size // outer * (outer - c0),
        cells_changed=int(np.count_nonzero(starts != old)),
        levels_touched=batches,
        spliced=False,
    )


def _gzo_suffix_pass(
    weights: np.ndarray, base: np.ndarray, dirty_idx: np.ndarray, context
) -> ConeResult:
    """GZO starts recomputed from the first dirty Kahn level onward."""
    from repro.core.orderings import zorder_order

    instance = _instance_for(weights)
    substrate = get_substrate(instance.geometry, context=context)
    verts, ptr = substrate.wavefront_for(zorder_order(instance))
    dirty = np.zeros(weights.size, dtype=bool)
    dirty[dirty_idx] = True
    first = int(np.argmax(dirty[verts]))  # schedule position of the first dirty cell
    level = int(np.searchsorted(ptr, first, side="right")) - 1
    cut = int(ptr[level])
    old = base.ravel()
    starts = old.copy()
    starts[verts[cut:]] = UNCOLORED
    starts = first_fit_wavefronts(
        substrate.layout, weights.ravel(), verts, ptr[level:], starts=starts
    )
    return ConeResult(
        starts=starts,
        cells_recomputed=weights.size - cut,
        cells_changed=int(np.count_nonzero(starts != old)),
        levels_touched=len(ptr) - 1 - level,
        spliced=False,
    )


def _seeds(layout: StencilLayout, dirty_idx: np.ndarray) -> np.ndarray:
    """GLF's seeds: the dirty cells and their 1-ring.

    A dirty cell may have moved across its neighbors in the weight order,
    changing *their* predecessor sets without any start moving yet.
    (Stable argsort: clean pairs never swap, so no seed beyond the dirty
    1-ring is ever needed.)
    """
    n = layout.interior.size
    seeded = np.zeros(n + 1, dtype=bool)  # slot n: off-grid neighbours
    seeded[layout.neighbors(dirty_idx)] = True
    seeded[dirty_idx] = True
    return np.flatnonzero(seeded[:n])


def recolor_grid(
    weights: np.ndarray,
    base_starts: np.ndarray,
    dirty: Union[np.ndarray, Sequence[int]],
    *,
    algorithm: str = "GLL",
    context=None,
    validate: Optional[bool] = None,
    max_cone_fraction: Optional[float] = None,
) -> RecolorOutcome:
    """Patch ``base_starts`` for a weight delta, bit-identical to full recolor.

    Parameters
    ----------
    weights:
        The grid's **new** weights (2D or 3D, positive int64).
    base_starts:
        The starts of a valid ``algorithm`` coloring of the *old* weights
        (same shape as ``weights``).
    dirty:
        Flat C-order integer indices of the cells whose weight changed
        (not a boolean mask).  Extra (actually-clean) indices are safe —
        they only widen the cone.
    algorithm:
        Registry algorithm name the base coloring was produced with.
    context:
        :class:`~repro.runtime.context.ExecutionContext`; defaults to the
        ambient one.  Supplies ``IncrementalConfig`` defaults and metrics.
    validate:
        Diff the result against a full recolor and raise
        :class:`RecolorValidationError` on divergence (default from
        ``context.config.incremental.validate``).
    max_cone_fraction:
        Cone budget override (default from config); a GLF walk aborts into
        the fallback once more than this fraction of cells was recomputed.
        The GLL and GZO suffix passes have no budget.
    """
    from repro.runtime.context import get_context

    ctx = context if context is not None else get_context()
    cfg = ctx.config.incremental
    if validate is None:
        validate = cfg.validate
    fraction = (
        cfg.max_cone_fraction if max_cone_fraction is None else max_cone_fraction
    )
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"max_cone_fraction must be in (0, 1], got {fraction!r}")

    weights = _as_grid("weights", weights)
    base = _as_grid("base_starts", base_starts, weights.shape)
    n = weights.size
    dirty_idx = _normalize_dirty(dirty, n)

    ctx.metrics.counter("recolor_calls").inc()
    t0 = perf_counter()

    cone: Optional[ConeResult] = None
    fallback_reason: Optional[str] = None
    if not dirty_idx.size:
        # Empty delta: the base coloring is the answer for any algorithm.
        cone = ConeResult(base.ravel(), 0, 0, 0, spliced=True)
    elif algorithm not in SUPPORTED_ALGORITHMS:
        fallback_reason = "unsupported-algorithm"
    elif algorithm == "GLL":
        cone = _gll_suffix_pass(
            weights, base, dirty_idx, _layout(weights.shape, ctx)
        )
    elif algorithm == "GZO":
        cone = _gzo_suffix_pass(weights, base, dirty_idx, ctx)
    else:
        layout = _layout(weights.shape, ctx)
        seeds = _seeds(layout, dirty_idx)
        budget = max(1, int(fraction * n))
        # Every seed is recomputed at least once, so a seed set past the
        # budget would abort the walk anyway.
        if seeds.size <= budget:
            dirty_mask = np.zeros(n, dtype=bool)
            dirty_mask[dirty_idx] = True
            cone = propagate_cone(
                layout.neighbors, base.ravel(), weights.ravel(),
                seeds, dirty_mask, budget,
            )
        if cone is None:
            fallback_reason = "cone-budget"

    if fallback_reason is None:
        ctx.metrics.counter("recolor_cone_cells").inc(cone.cells_recomputed)
    else:
        ctx.metrics.counter("recolor_fallbacks").inc()
        starts = full_recolor(weights, algorithm, context=ctx).ravel()
        changed = int(np.count_nonzero(starts != base.ravel()))
        cone = ConeResult(starts, 0, changed, 0, spliced=False)
    new_starts = cone.starts.reshape(weights.shape)
    outcome = RecolorOutcome(
        starts=new_starts,
        maxcolor=int((new_starts + weights).max()) if n else 0,
        algorithm=algorithm,
        mode="incremental" if fallback_reason is None else "fallback",
        cells_dirty=int(dirty_idx.size),
        cells_recomputed=cone.cells_recomputed,
        cells_changed=cone.cells_changed,
        levels_touched=cone.levels_touched,
        spliced=cone.spliced,
        fallback_reason=fallback_reason,
        elapsed=perf_counter() - t0,
    )
    ctx.metrics.histogram("recolor_splice_seconds").observe(outcome.elapsed)

    if validate:
        truth = full_recolor(weights, algorithm, context=ctx)
        if not np.array_equal(outcome.starts, truth):
            diff = int(np.count_nonzero(outcome.starts != truth))
            raise RecolorValidationError(
                f"incremental {algorithm} recolor diverged from full recolor "
                f"on {diff} of {n} cells (mode={outcome.mode})"
            )
    return outcome
