"""Policy layer of the dirty-region recolor engine: :func:`recolor_grid`.

The cone walk (:mod:`repro.incremental.cone`) is order-agnostic; this module
decides *which* orders it may be applied to and when to give up:

Supported algorithms
--------------------
``GLL``
    Analytic levels ``i + 2j (+ 4k)`` and the padded-offset neighbour
    gather of the shape's cached
    :class:`~repro.kernels.substrate.StencilLayout` — no schedule, no
    materialized adjacency.  Seeds are the dirty cells: the scan order is
    weight-independent.
``GZO``
    Kahn batch indices of the Morton order via the shared substrate.  The
    order is weight-independent, so the schedule is cached across deltas
    (one Kahn construction per shape) and seeds are again just the dirty
    cells.
``GLF``
    The heaviest-first order is a stable ``argsort(-weights)`` — i.e. the
    lexicographic order ``(weight desc, flat index asc)`` — so its level
    function is analytic too: ``level = -new_weight``, with the flat index
    breaking ties between adjacent equal-weight cells
    (``index_tiebreak=True`` in the cone walk).  No schedule, no argsort,
    no Kahn rebuild per delta.  A weight delta can only move dirty cells
    relative to their neighbors — two clean cells never swap — so seeds
    are the dirty cells **plus their neighbors** (whose predecessor sets
    may have gained or lost a dirty cell).

Everything else — GSL's cascading smallest-last removal can reorder distant
pairs, BD/BDP are not single-pass greedy scans — takes the always-correct
fallback: a full from-scratch recolor through the ordinary registry path,
still bit-identical by definition.  The fallback also engages when the cone
exceeds ``max_cone_fraction`` of the grid (``"cone-budget"``), at which
point one monolithic kernel pass is cheaper than continuing the walk.

Metrics (on the context registry): ``recolor_calls``, ``recolor_cone_cells``
(cells recomputed by cone walks), ``recolor_fallbacks``, and the
``recolor_splice_seconds`` latency histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional, Sequence, Union

import numpy as np

from repro.incremental.cone import ConeResult, propagate_cone
from repro.kernels.substrate import (
    StencilLayout,
    analytic_levels,
    get_substrate,
    shared_geometry_2d,
    shared_geometry_3d,
)

__all__ = [
    "SUPPORTED_ALGORITHMS",
    "RecolorOutcome",
    "RecolorValidationError",
    "full_recolor",
    "recolor_grid",
]

#: Algorithms whose scan the cone walk can replay incrementally.
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
    idx = np.unique(np.asarray(dirty, dtype=np.int64).ravel())
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError(f"dirty indices out of range [0, {n})")
    return idx


def _layout(shape: tuple[int, ...], context) -> StencilLayout:
    """The shape's layout, built once per shape in the context's substrate."""
    geometry = (shared_geometry_2d if len(shape) == 2 else shared_geometry_3d)(
        *shape, context=context
    )
    return get_substrate(geometry, context=context).layout


def _levels_and_seeds(
    algorithm: str,
    weights: np.ndarray,
    dirty_idx: np.ndarray,
    context,
):
    """``(levels, gather, seeds, index_tiebreak)`` for the *new* order."""
    shape = weights.shape
    n = weights.size
    if algorithm == "GLL":
        gather = _layout(shape, context).neighbors
        return analytic_levels(shape), gather, dirty_idx, False

    if algorithm == "GLF":
        gather = _layout(shape, context).neighbors
        # A dirty cell may have moved across its neighbors in the weight
        # order, changing *their* predecessor sets without any start moving
        # yet — seed the neighbors too.  (Stable argsort: clean pairs never
        # swap, so no seed beyond the dirty 1-ring is ever needed.)
        seeds = dirty_idx
        if dirty_idx.size:
            ring = gather(dirty_idx).ravel()
            seeds = np.union1d(dirty_idx, ring[ring < n])
        return -weights.ravel(), gather, seeds, True

    from repro.core.orderings import zorder_order

    instance = _instance_for(weights)
    substrate = get_substrate(instance.geometry, context=context)
    verts, ptr = substrate.wavefront_for(zorder_order(instance))
    levels = np.empty(n, dtype=np.int64)
    levels[verts] = np.repeat(
        np.arange(len(ptr) - 1, dtype=np.int64), np.diff(ptr)
    )
    return levels, substrate.layout.neighbors, dirty_idx, False


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
        Flat C-order indices of the cells whose weight changed.  Extra
        (actually-clean) indices are safe — they only widen the cone.
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
        Cone budget override (default from config); the walk aborts into
        the fallback once more than this fraction of cells was recomputed.
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
        pass  # empty delta: the base coloring is the answer for any algorithm
    elif algorithm not in SUPPORTED_ALGORITHMS:
        fallback_reason = "unsupported-algorithm"
    else:
        levels, gather, seeds, tiebreak = _levels_and_seeds(
            algorithm, weights, dirty_idx, ctx
        )
        dirty_mask = np.zeros(n, dtype=bool)
        dirty_mask[dirty_idx] = True
        budget = max(1, int(fraction * n))
        cone = propagate_cone(
            levels, gather, base.ravel(), weights.ravel(), seeds,
            dirty_mask, budget, index_tiebreak=tiebreak,
        )
        if cone is None:
            fallback_reason = "cone-budget"

    if fallback_reason is not None:
        ctx.metrics.counter("recolor_fallbacks").inc()
        new_starts = full_recolor(weights, algorithm, context=ctx)
        outcome = RecolorOutcome(
            starts=new_starts,
            maxcolor=int((new_starts + weights).max()) if n else 0,
            algorithm=algorithm,
            mode="fallback",
            cells_dirty=int(dirty_idx.size),
            cells_recomputed=0,
            cells_changed=int(np.count_nonzero(new_starts != base)),
            levels_touched=0,
            spliced=False,
            fallback_reason=fallback_reason,
            elapsed=perf_counter() - t0,
        )
    else:
        if cone is None:  # empty delta: the base coloring is the answer
            new_starts = base
            recomputed = changed = touched = 0
            spliced = True
        else:
            new_starts = cone.starts.reshape(weights.shape)
            recomputed = cone.cells_recomputed
            changed = cone.cells_changed
            touched = cone.levels_touched
            spliced = cone.spliced
        ctx.metrics.counter("recolor_cone_cells").inc(recomputed)
        outcome = RecolorOutcome(
            starts=new_starts,
            maxcolor=int((new_starts + weights).max()) if n else 0,
            algorithm=algorithm,
            mode="incremental",
            cells_dirty=int(dirty_idx.size),
            cells_recomputed=recomputed,
            cells_changed=changed,
            levels_touched=touched,
            spliced=spliced,
            fallback_reason=None,
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
