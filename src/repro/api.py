"""The stable facade: one entry point for every way to color a grid.

Four call styles accreted historically — ``color_with`` on an
:class:`~repro.core.problem.IVCInstance`, the kernel-path variants behind
``fast=``, the engine's ``run_grid``, and the service client — each with
its own argument conventions.  :func:`color` subsumes them: build (or
accept) an instance, resolve the runtime (reference loops, vectorized
kernels, or the out-of-core tiler), run, and return a
:class:`ColoringResult` carrying the coloring, a metrics snapshot, and
provenance naming exactly how it was produced.  ``docs/api.md`` has the
"choosing an entry point" guide; ``color_with`` (:mod:`repro.core`) and
``run_grid`` (:mod:`repro.engine`) stay available from their home packages.

This is deliberately the **only** module in ``src/repro`` that imports
across the engine / kernels / service / tiling subsystem boundaries at
module level — ``tools/check_layers.py`` enforces that everyone else picks
one side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core.algorithms.registry import REGISTRY, color_with
from repro.core.coloring import Coloring
from repro.core.problem import IVCInstance
from repro.data.weights import WeightSource
from repro.incremental.engine import recolor_grid
from repro.kernels import native
from repro.runtime.config import RUNTIME_MODES, RuntimeConfig
from repro.runtime.context import ExecutionContext, get_context
from repro.tiling.stitch import TiledColoring, color_tiled

__all__ = ["ColoringResult", "color", "recolor"]

@dataclass
class ColoringResult:
    """What :func:`color` returns, whichever runtime produced it.

    ``starts`` is grid-shaped for grid inputs (``None`` for tiled
    digest-only runs); ``provenance`` records the algorithm, the runtime
    mode actually used (``"monolithic"`` vs ``"tiled"``), and a fingerprint
    of the governing :class:`RuntimeConfig` — enough to say *which code
    path on which configuration* made this coloring, without embedding the
    config itself.
    """

    starts: Optional[np.ndarray]
    maxcolor: int
    algorithm: str
    mode: str
    provenance: dict
    metrics: Optional[dict] = field(default=None, repr=False)
    coloring: Optional[Coloring] = field(default=None, repr=False)
    tiled: Optional[TiledColoring] = field(default=None, repr=False)


def _wants_tiling(
    runtime_str: Optional[str],
    ctx: ExecutionContext,
    algorithm: str,
    num_cells: Optional[int],
    grid_only_input: bool,
) -> bool:
    """Whether this call goes through the tiler.

    Explicit ``runtime="tiled"`` always does (and demands GLL — the seam
    invariant is a GLL property).  A :class:`~repro.data.WeightSource`
    input can *only* be tiled (there is nothing to hand the monolithic
    kernels).  Otherwise the config's tiling mode decides: ``"on"`` tiles
    every GLL call, ``"auto"`` tiles GLL from ``min_cells`` up, ``"off"``
    never tiles.
    """
    if runtime_str == "tiled" or grid_only_input:
        if algorithm != "GLL":
            raise ValueError(
                f"tiled coloring reproduces the GLL scan only, got {algorithm!r}"
            )
        return True
    if runtime_str in ("kernels", "reference") or algorithm != "GLL":
        return False
    cfg = ctx.config.tiling
    if cfg.mode == "on":
        return True
    return (
        cfg.mode == "auto" and num_cells is not None and num_cells >= cfg.min_cells
    )


def color(
    grid_or_instance,
    algorithm: str = "GLL",
    *,
    runtime: Union[None, str, RuntimeConfig, ExecutionContext] = None,
    validate: bool = False,
    tile_shape: Optional[tuple[int, ...]] = None,
) -> ColoringResult:
    """Color a stencil grid (or prepared instance) and say how it was done.

    Parameters
    ----------
    grid_or_instance:
        A 2D/3D weight array, an :class:`IVCInstance`, a path to an
        ``.npy`` weight file (memory-mapped), or a
        :class:`~repro.data.WeightSource` (tiled runtime only — e.g.
        synthetic weights for grids that never materialize).
    algorithm:
        A registry algorithm name (``"GLL"``, ``"BDP"``, ...).  The tiled
        runtime supports ``"GLL"`` only.
    runtime:
        How to run:

        * ``None`` (the default) — the ambient context decides (kernels
          unless ``config.fast_paths`` is off, the tiler per
          ``config.tiling``); ``"auto"`` is an alias of it;
        * ``"kernels"`` — force the vectorized kernels;
        * ``"reference"`` — force the reference loops;
        * ``"tiled"`` — force the out-of-core tiler;
        * a :class:`RuntimeConfig` — run under a fresh context over it;
        * an :class:`ExecutionContext` — run under exactly that context.
    validate:
        Check the coloring for conflicts before returning (monolithic
        runtimes only).
    tile_shape:
        Tiler override, ignored by monolithic runtimes.

    Returns
    -------
    ColoringResult
        Bit-identical starts to the legacy entry point for the same
        algorithm and runtime — this facade changes how you ask, never the
        answer.  Monolithic runs set ``provenance["fast"]`` to whether the
        vectorized kernel actually ran.  ``provenance["first_fit"]`` names
        the first-fit loop the kernels use: ``"native"`` (the compiled
        loop of :mod:`repro.kernels.native`) or ``"reference"`` (no kernel
        ran, or no C compiler was found and the same scan ran in Python).
    """
    runtime_str: Optional[str] = None
    if runtime is None:
        ctx = get_context()
    elif isinstance(runtime, str):
        if runtime not in RUNTIME_MODES:
            raise ValueError(
                f"runtime must be one of {sorted(RUNTIME_MODES)}, a RuntimeConfig, "
                f"or an ExecutionContext; got {runtime!r}"
            )
        runtime_str = runtime
        ctx = get_context()
    elif isinstance(runtime, RuntimeConfig):
        ctx = ExecutionContext(runtime)
    elif isinstance(runtime, ExecutionContext):
        ctx = runtime
    else:
        raise TypeError(f"unsupported runtime: {type(runtime).__name__}")
    fast = RUNTIME_MODES.get(runtime_str) if runtime_str else None

    obj = grid_or_instance
    instance: Optional[IVCInstance] = None
    grid: Optional[np.ndarray] = None
    source: Union[None, str, Path, WeightSource] = None
    if isinstance(obj, IVCInstance):
        instance = obj
        num_cells: Optional[int] = obj.num_vertices
    elif isinstance(obj, (str, Path, WeightSource)):
        source = obj
        num_cells = None
    else:
        grid = np.asarray(obj)
        if grid.ndim not in (2, 3):
            raise ValueError(f"weight grid must be 2D or 3D, got {grid.ndim}D")
        num_cells = grid.size

    if _wants_tiling(runtime_str, ctx, algorithm, num_cells, source is not None):
        if instance is not None:
            if instance.geometry is None:
                raise ValueError("tiled coloring needs a grid instance")
            grid = instance.weight_grid()
        tiled = color_tiled(
            source if source is not None else grid,
            tile_shape=tile_shape,
            context=ctx,
        )
        provenance = {
            "algorithm": "GLL",
            "mode": "tiled",
            "runtime": ctx.config.fingerprint,
            "first_fit": native.path(),
            "tiles": tiled.plan.num_tiles,
            "tile_shape": tiled.plan.tile_shape,
            "digest": tiled.digest,
        }
        return ColoringResult(
            starts=(
                np.asarray(tiled.starts) if tiled.starts is not None else None
            ),
            maxcolor=tiled.maxcolor,
            algorithm="GLL",
            mode="tiled",
            provenance=provenance,
            metrics=ctx.metrics.snapshot(),
            tiled=tiled,
        )

    if instance is None:
        instance = IVCInstance.from_grid(grid)
    coloring = color_with(instance, algorithm, fast=fast, context=ctx)
    if validate:
        coloring.check()
    starts = np.asarray(coloring.starts, dtype=np.int64)
    shape = (
        tuple(instance.geometry.shape) if instance.geometry is not None else None
    )
    if shape is not None:
        starts = starts.reshape(shape)
    ran_kernel = REGISTRY.get(algorithm).runs_kernel(instance, fast, ctx)
    provenance = {
        "algorithm": algorithm,
        "mode": "monolithic",
        "runtime": ctx.config.fingerprint,
        "fast": ran_kernel,
        "first_fit": native.path() if ran_kernel else "reference",
        "shape": shape,
    }
    return ColoringResult(
        starts=starts,
        maxcolor=coloring.maxcolor,
        algorithm=algorithm,
        mode="monolithic",
        provenance=provenance,
        metrics=ctx.metrics.snapshot(),
        coloring=coloring,
    )


def recolor(
    weights,
    base,
    *,
    dirty=None,
    base_weights=None,
    algorithm: str = "GLL",
    runtime: Union[None, RuntimeConfig, ExecutionContext] = None,
    validate: Optional[bool] = None,
) -> ColoringResult:
    """Patch an existing coloring for a sparse weight delta.

    Instead of recoloring the whole grid, recompute only what can differ
    (:mod:`repro.incremental`): under GLL, GZO and GLF, one compiled walk
    first-fits again only the cells the changed cells can reach, in the
    algorithm's order.  The result is **bit-identical** to
    ``color(weights, algorithm)`` — other algorithms, walks that outgrow
    a fixed share of the grid, and every delta when no C compiler is
    available transparently take a full recolor
    (``mode="incremental-fallback"``).

    Parameters
    ----------
    weights:
        The grid's **new** weights (2D or 3D array).
    base:
        The prior coloring of the *old* weights with the same
        ``algorithm``: a :class:`ColoringResult` (whose ``algorithm`` must
        match; ``ValueError`` otherwise) or a grid-shaped starts array
        (unchecked: it carries no algorithm).
    dirty:
        Flat C-order integer indices of the cells whose weight changed
        (``np.flatnonzero(mask)`` turns a boolean mask into them).  Omit it
        and pass ``base_weights`` (the old weights) to have the delta
        derived by comparison; extra indices are safe, missing ones are
        not.
    base_weights:
        The old weights, used to derive ``dirty`` when it is omitted.
    algorithm:
        Registry algorithm the base coloring was produced with.
    runtime:
        ``None`` (ambient context), a :class:`RuntimeConfig` (fresh
        context), or an :class:`ExecutionContext`.
    validate:
        Override for the context's
        :class:`~repro.runtime.config.IncrementalConfig`: diff against a
        full recolor.

    Returns
    -------
    ColoringResult
        ``provenance["recolor"]`` carries the delta provenance: cells
        dirtied, cells the walk placed, cells changed, distinct keys of the
        order the walk placed (weight levels for GLF), whether the walk
        ended before the end of the order, and the fallback reason if one
        engaged.
    """
    if runtime is None:
        ctx = get_context()
    elif isinstance(runtime, RuntimeConfig):
        ctx = ExecutionContext(runtime)
    elif isinstance(runtime, ExecutionContext):
        ctx = runtime
    else:
        raise TypeError(
            "recolor's runtime must be None, a RuntimeConfig, or an "
            f"ExecutionContext; got {type(runtime).__name__}"
        )

    base_starts = base
    if isinstance(base, ColoringResult):
        if base.algorithm != algorithm:
            raise ValueError(
                f"base coloring was made with {base.algorithm}, "
                f"not {algorithm}; pass algorithm={base.algorithm!r}"
            )
        base_starts = base.starts
    if base_starts is None:
        raise ValueError("base coloring carries no starts (digest-only?)")
    if dirty is None:
        if base_weights is None:
            raise ValueError("give dirty indices or base_weights to diff")
        old = np.asarray(base_weights)
        new = np.asarray(weights)
        if old.shape != new.shape:
            raise ValueError(
                f"base_weights shape {old.shape} != weights shape {new.shape}"
            )
        dirty = np.flatnonzero(old.ravel() != new.ravel())

    outcome = recolor_grid(
        weights,
        base_starts,
        dirty,
        algorithm=algorithm,
        context=ctx,
        validate=validate,
    )
    mode = (
        "incremental" if outcome.mode == "incremental" else "incremental-fallback"
    )
    provenance = {
        "algorithm": algorithm,
        "mode": mode,
        "runtime": ctx.config.fingerprint,
        "shape": tuple(outcome.starts.shape),
        "recolor": outcome.stats(),
    }
    return ColoringResult(
        starts=outcome.starts,
        maxcolor=outcome.maxcolor,
        algorithm=algorithm,
        mode=mode,
        provenance=provenance,
        metrics=ctx.metrics.snapshot(),
    )
