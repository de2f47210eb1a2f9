"""The tiled coloring orchestrator: plan, resume, band pass, digest.

:func:`color_tiled` is the tiler's entry point (reached through
``repro.api.color(..., runtime="tiled")`` or the ``stencil-ivc tile`` CLI).
It colors grids too large for the monolithic kernels — bit-identically to
them — in two steps:

1. **Plan** — cut the grid into tiles (:func:`repro.tiling.plan.plan_tiles`),
   with the tile shape taken from an explicit argument, the
   :class:`~repro.runtime.config.TilingConfig`, or derived from its
   ``tile_cells`` / ``memory_budget_mb``.
2. **Band pass** — one sequential streamed scan of outer-axis bands
   (:func:`repro.tiling.seams.seam_pass`) that colors every cell once,
   writes each band's starts out, and records a digest per tile.  Peak
   memory: one band.

Output modes: ``out=`` streams starts into an ``.npy`` memmap (bounded
memory); the default assembles the full starts array in memory; and
``assemble=False`` keeps only per-tile digests plus the combined digest —
how grids that fit on disk but not in RAM (or neither) are verified.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional, Union

import numpy as np

from repro.data.weights import as_weight_source
from repro.runtime.config import TilingConfig
from repro.runtime.context import ExecutionContext, get_context
from repro.tiling.plan import TilePlan, derive_tile_shape, plan_tiles
from repro.tiling.runlog import (
    STATUS_OK,
    TileLogWriter,
    TileRecord,
    read_band_resume,
)
from repro.tiling.seams import seam_pass

__all__ = ["TiledColoring", "TilingError", "color_tiled"]


class TilingError(RuntimeError):
    """A tiled run finished with failed tiles (records carry the details)."""

    def __init__(self, message: str, records: list[TileRecord]):
        super().__init__(message)
        self.records = records


@dataclass
class TiledColoring:
    """The outcome of a tiled run.

    ``starts`` is the full assembled array (in memory, or a read-only view
    of the ``out=`` memmap); ``None`` in digest-only mode.  ``digest`` is
    the combined per-tile digest — two runs (tiled or resumed) over the
    same grid agree on it iff their colorings are byte-identical, which is
    how grids too large to assemble are compared.  ``seam_cells`` counts
    the cells the band pass colored, carries included.
    """

    plan: TilePlan
    maxcolor: int
    digest: str
    records: list[TileRecord]
    starts: Optional[np.ndarray] = None
    out_path: Optional[str] = None
    seam_bands: int = 0
    seam_cells: int = 0
    seam_elapsed: float = 0.0
    elapsed: float = 0.0
    resumed_tiles: int = 0


def _combined_digest(records: list[TileRecord]) -> str:
    """One digest over all tiles, in plan order."""
    h = hashlib.blake2b(digest_size=16)
    for record in records:
        h.update(f"{record.pos}:{record.digest};".encode())
    return h.hexdigest()


def color_tiled(
    weights_or_source,
    *,
    tiling: Optional[TilingConfig] = None,
    tile_shape: Optional[tuple[int, ...]] = None,
    jobs: Optional[int] = None,
    out: Optional[Union[str, Path]] = None,
    assemble: bool = True,
    log_path: Optional[Union[str, Path]] = None,
    resume_from: Optional[Union[str, Path]] = None,
    context: Optional[ExecutionContext] = None,
) -> TiledColoring:
    """Color a 2D/3D grid through the tiler, bit-identically to monolithic.

    Parameters
    ----------
    weights_or_source:
        Anything :func:`repro.data.as_weight_source` accepts — an in-memory
        array, a path to an ``.npy`` file (memory-mapped), or a
        :class:`~repro.data.WeightSource` (e.g. synthetic weights for grids
        that never materialize).
    tiling:
        Tiling configuration; defaults to the context's
        ``config.tiling``.  ``tile_shape`` overrides its field.
    jobs:
        Accepted and ignored: the band pass is sequential, and it has
        colored every cell before any per-tile work could start.
    out:
        Path of an ``.npy`` memmap to stream starts into; the full grid is
        never held in memory.  With ``out`` set, ``starts`` on the result
        is a read-only memmap view.
    assemble:
        With no ``out``, whether to assemble the full starts array in
        memory (default).  ``False`` keeps only digests — the only mode
        whose peak memory is independent of grid size.
    log_path / resume_from:
        JSONL tile log to write (plus its ``<log>.carry.npy`` band-carry
        checkpoint) / a previous log to resume from.  Resume adopts the
        longest prefix of completed bands whose carry checkpoint verifies
        and colors only the bands after it; a log whose plan or weight
        fingerprint mismatches, or whose checkpoint is missing or damaged,
        is ignored wholesale.  Resuming into assembled in-memory output
        would silently drop the resumed tiles' starts, so it requires
        ``out=`` (whose memmap still holds them) or ``assemble=False``.

    Returns
    -------
    TiledColoring
        Starts (per the output mode), global maxcolor, per-tile records,
        combined digest, and band-pass statistics.
    """
    ctx = context if context is not None else get_context()
    source = as_weight_source(weights_or_source)
    shape = source.shape
    cfg = tiling if tiling is not None else ctx.config.tiling
    if tile_shape is not None:
        cfg = cfg.with_overrides(tile_shape=tuple(int(t) for t in tile_shape))
    plan = plan_tiles(shape, derive_tile_shape(shape, cfg))
    t0 = perf_counter()
    ctx.metrics.counter("tiling.runs").inc()

    start_band, carry, adopted = 0, None, {}
    if resume_from is not None:
        start_band, carry, adopted = read_band_resume(
            resume_from, plan, source_fingerprint=source.fingerprint()
        )
        if adopted and out is None and assemble:
            raise ValueError(
                "resume_from with in-memory assembly would drop the resumed "
                "tiles' starts — pass out= (their memmap persists) or "
                "assemble=False"
            )

    out_path = str(out) if out is not None else None
    target: Optional[np.ndarray] = None
    if out_path is not None:
        if adopted and Path(out_path).exists():
            target = np.lib.format.open_memmap(out_path, mode="r+")
            if target.shape != shape or target.dtype != np.int64:
                raise ValueError(
                    f"out= memmap {out_path} is {target.dtype}{target.shape}, "
                    f"expected int64{shape}"
                )
        else:
            target = np.lib.format.open_memmap(
                out_path, mode="w+", dtype=np.int64, shape=shape
            )
            # No prior data to pair resumed records with.
            start_band, carry, adopted = 0, None, {}
    elif assemble:
        target = np.empty(shape, dtype=np.int64)

    writer = (
        TileLogWriter(
            log_path,
            plan_fingerprint=plan.fingerprint(),
            source_fingerprint=source.fingerprint(),
            adopted=[adopted[pos] for pos in sorted(adopted)],
            band=start_band - 1,
            carry=carry,
        )
        if log_path is not None
        else None
    )
    try:
        seam = seam_pass(
            source, plan, out=target, log=writer,
            start_band=start_band, carry=carry, context=ctx,
        )
    finally:
        if isinstance(target, np.memmap):
            target.flush()

    records = [adopted.get(t.pos) or seam.records[t.pos] for t in plan.tiles]
    failed = [r for r in records if r.status != STATUS_OK]
    if failed:
        where = f"; completed bands are in {log_path}" if log_path else ""
        raise TilingError(
            f"{len(failed)}/{plan.num_tiles} tiles failed "
            f"(first: tile {failed[0].pos}: {failed[0].error}){where}",
            records=records,
        )

    starts = target
    if out_path is not None:
        starts = np.lib.format.open_memmap(out_path, mode="r")

    ctx.metrics.counter("tiling.tiles_total").inc(plan.num_tiles)
    return TiledColoring(
        plan=plan,
        maxcolor=max(r.maxcolor for r in records),
        digest=_combined_digest(records),
        records=records,
        starts=starts,
        out_path=out_path,
        seam_bands=seam.bands,
        seam_cells=seam.cells,
        seam_elapsed=seam.elapsed,
        elapsed=perf_counter() - t0,
        resumed_tiles=len(adopted),
    )
