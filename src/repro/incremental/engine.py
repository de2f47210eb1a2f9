"""Policy layer of the dirty-region recolor engine: :func:`recolor_grid`.

This module decides, per algorithm, how a weight delta is patched and
when to give up:

Supported algorithms
--------------------
``GLL``, ``GZO`` and ``GLF`` are each one first-fit scan in a fixed order,
so every delta of theirs goes through one walk
(:func:`repro.incremental.cone.propagate_cone`, one call of the compiled
:func:`repro.kernels.native.cone_walk`): it first-fits again only the
cells the delta can reach, in the order's key — a static rank per shape
for GLL and GZO (cached on the shape's substrate), ``-weight`` for GLF —
and is bit-identical to a full recolor.

Fallbacks
---------
Every fallback is a full from-scratch recolor through the ordinary
registry path, bit-identical by definition:

* ``"unsupported-algorithm"``: GSL's cascading smallest-last removal can
  reorder distant pairs, and BD/BDP are not single-pass greedy scans.
* ``"cone-budget"``: a delta dirtying more than :data:`CONE_CUTOFF` of
  the grid's cells falls back without walking, and a GLF walk stops once
  it has placed that many.  A walk costs more per cell than a full pass
  (its queue and its predecessor tests), so the cutoff is set where an
  aborted GLF walk plus its full recolor, or a GLL or GZO walk over the
  whole grid, still costs about two full recolors (measured in
  ``docs/incremental.md``).  GLL and GZO walks never stop: their bitset
  queue keeps even a walk that cascades over the whole grid within that
  bound, and GLL cascades often.
* ``"no-compiler"``: the walk is compiled C only; without a C compiler
  every delta is a full recolor.

Metrics (on the context registry): ``recolor_calls``, ``recolor_cone_cells``
(cells the walks placed), ``recolor_fallbacks``, and the
``recolor_splice_seconds`` latency histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional, Sequence, Union

import numpy as np

from repro.incremental.cone import ConeResult, propagate_cone
from repro.kernels import native
from repro.kernels.substrate import (
    Substrate,
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

#: Algorithms patched by the walk instead of a full recolor.
SUPPORTED_ALGORITHMS = frozenset({"GLL", "GZO", "GLF"})

#: The share of a grid's cells past which a delta falls back to a full
#: recolor: more dirty cells than this, or a GLF walk that places more
#: (``docs/incremental.md`` has the measured worst cases behind it).
CONE_CUTOFF = 0.25


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
    cells_recomputed: int  # cells the walk placed; 0 in fallback mode
    cells_changed: int  # starts that differ from the base coloring
    levels_touched: int  # distinct keys the walk placed
    spliced: bool  # the walk ended before the last key of the order
    fallback_reason: Optional[str]  # see the module docstring
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


def full_recolor(weights: np.ndarray, algorithm: str, context=None) -> np.ndarray:
    """Grid-shaped starts of a from-scratch recolor (the ground truth)."""
    from repro.core.algorithms.registry import color_with
    from repro.core.problem import IVCInstance

    weights = _as_grid("weights", weights)
    instance = IVCInstance.from_grid(weights, name="recolor")
    coloring = color_with(instance, algorithm, context=context)
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


def _substrate(shape: tuple[int, ...], context) -> Substrate:
    """The shape's substrate, built once per shape in the context."""
    geometry = (shared_geometry_2d if len(shape) == 2 else shared_geometry_3d)(
        *shape, context=context
    )
    return get_substrate(geometry, context=context)


def recolor_grid(
    weights: np.ndarray,
    base_starts: np.ndarray,
    dirty: Union[np.ndarray, Sequence[int]],
    *,
    algorithm: str = "GLL",
    context=None,
    validate: Optional[bool] = None,
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
        they only widen the walk.
    algorithm:
        Registry algorithm name the base coloring was produced with.
    context:
        :class:`~repro.runtime.context.ExecutionContext`; defaults to the
        ambient one.  Supplies ``IncrementalConfig`` defaults and metrics.
    validate:
        Diff the result against a full recolor and raise
        :class:`RecolorValidationError` on divergence (default from
        ``context.config.incremental.validate``).
    """
    from repro.runtime.context import get_context

    ctx = context if context is not None else get_context()
    cfg = ctx.config.incremental
    if validate is None:
        validate = cfg.validate

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
    elif native.path() != "native":
        fallback_reason = "no-compiler"
    else:
        budget = int(CONE_CUTOFF * n)
        # Every dirty cell is placed at least once, so a denser delta
        # would walk at least that far.
        if dirty_idx.size <= budget:
            substrate = _substrate(weights.shape, ctx)
            ranking = None  # GLF: heaviest first, keyed by the new weights
            if algorithm == "GLL":
                ranking = substrate.gll_ranking
            elif algorithm == "GZO":
                ranking = substrate.gzo_ranking
            cone = propagate_cone(  # GLL and GZO walks never stop
                substrate.layout, weights.ravel(), base.ravel(), dirty_idx,
                budget if ranking is None else n, ranking,
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
