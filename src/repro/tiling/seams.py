"""The band pass: stream outer-axis bands, coloring every cell exactly once.

Tiles cannot be colored independently in any order: GLL's zipper dependency
(``(i+1, j-1)`` precedes ``(i, j)``) makes vertically adjacent tiles
mutually dependent — the tile DAG is cyclic at tile granularity.  What *is*
acyclic is the outer axis: a band of columns (2D) or planes (3D) depends
only on the trailing column/plane of the previous band.  So the pass colors
the grid once, exactly, in sequential outer-axis bands aligned to tile
edges.  For each band it

* writes the band's starts into the output array (an ``out=`` memmap or
  the in-memory assembly), if there is one;
* cuts out each tile of the band and records its maxcolor and the digest
  of its starts (:class:`~repro.tiling.runlog.TileRecord`);
* hands the band's last column/plane — the *carry* — to the next band,
  whose region starts with it: every carry cell precedes every band cell
  in the GLL scan, so :func:`repro.kernels.halo.color_region` takes it as
  final and colors the band after it;
* with a log, appends the band's tile records and checkpoints its carry
  (:meth:`~repro.tiling.runlog.TileLogWriter.commit_band`), so a killed run
  resumes at the next band.

Peak memory is one band — ``prod(shape[:-1]) × (tile_outer + 1)`` cells
times a handful of ``int64`` arrays — regardless of grid size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from repro.data.weights import WeightSource
from repro.kernels.halo import color_region
from repro.resilience.faults import inject
from repro.runtime.context import ExecutionContext, get_context
from repro.runtime.fingerprint import array_digest
from repro.tiling.plan import Box, TilePlan, local_slices
from repro.tiling.runlog import STATUS_ERROR, TileLogWriter, TileRecord

__all__ = ["SeamResult", "seam_pass"]


@dataclass
class SeamResult:
    """What the band pass produced: one record per tile of the bands it ran."""

    records: dict[int, TileRecord] = field(default_factory=dict)
    bands: int = 0
    cells: int = 0
    elapsed: float = 0.0


def seam_pass(
    source: WeightSource,
    plan: TilePlan,
    *,
    out: Optional[np.ndarray] = None,
    log: Optional[TileLogWriter] = None,
    start_band: int = 0,
    carry: Optional[np.ndarray] = None,
    context: Optional[ExecutionContext] = None,
) -> SeamResult:
    """Color bands ``start_band`` onward, writing starts to ``out``.

    ``carry`` is the last column/plane of band ``start_band - 1``, shaped
    ``plan.shape[:-1]`` (required when resuming past band 0; a missing or
    wrong-shaped one raises ``ValueError``).  A band that raises — an
    injected ``tiling.band`` fault, a failing weight source — ends the
    pass: its tiles and every later band's get ``error`` records, and the
    bands already done keep their ``ok`` records (and, with a log, their
    carry checkpoint) for a resume.
    """
    if start_band > 0 and carry is None:
        raise ValueError(f"resuming at band {start_band} needs a carry")
    if carry is not None and np.shape(carry) != plan.shape[:-1]:
        raise ValueError(f"carry shape {np.shape(carry)} != {plan.shape[:-1]}")
    if start_band == 0:
        carry = None  # band 0 has no predecessor
    ctx = context if context is not None else get_context()
    metrics = ctx.metrics
    full = tuple((0, d) for d in plan.shape[:-1])
    worker = f"pid-{os.getpid()}"
    bands = plan.bands()
    result = SeamResult()
    t0 = perf_counter()

    for b in range(start_band, len(bands)):
        band_tiles = bands[b]
        b0, b1 = band_tiles[0].box[-1]
        lo = max(b0 - 1, 0)
        region: Box = full + ((lo, b1),)
        tb = perf_counter()
        try:
            inject("tiling.band", f"band-{b}")
            weights = source.region(region)
            starts = color_region(weights, carry)
            if out is not None:
                out[..., b0:b1] = starts[..., b0 - lo :]
            records = []
            for tile in band_tiles:
                sl = local_slices(tile.box, region)
                records.append(TileRecord(
                    pos=tile.pos,
                    index=tuple(tile.index),
                    maxcolor=int((starts[sl] + weights[sl]).max()),
                    digest=array_digest(starts[sl]).hex(),
                    worker=worker,
                ))
            carry = np.ascontiguousarray(starts[..., -1])
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            failed = [tile for rest in bands[b:] for tile in rest]
            for tile in failed:
                record = TileRecord(
                    pos=tile.pos,
                    index=tuple(tile.index),
                    status=STATUS_ERROR,
                    error=error,
                    worker=worker,
                )
                result.records[tile.pos] = record
                if log is not None:
                    log.write(record)
            metrics.counter("tiling.tiles_error").inc(len(failed))
            break

        elapsed = perf_counter() - tb
        band_cells = sum(tile.cells for tile in band_tiles)
        for tile, record in zip(band_tiles, records):
            # Each tile's share of its band's wall time, by cells.
            record.elapsed = elapsed * tile.cells / band_cells
            result.records[tile.pos] = record
        if log is not None:
            if isinstance(out, np.memmap):
                out.flush()  # the starts are durable before the band is logged
            for record in records:
                log.write(record)
            log.commit_band(b, carry)

        result.bands += 1
        result.cells += weights.size
        metrics.counter("tiling.seam_bands").inc()
        metrics.counter("tiling.seam_cells").inc(weights.size)
        metrics.counter("tiling.tiles_ok").inc(len(records))
        metrics.histogram("tiling.band_seconds").observe(elapsed)

    result.elapsed = perf_counter() - t0
    return result
