"""Tiled out-of-core coloring as one streaming band pass.

Colors grids far larger than memory — **bit-identically** to the monolithic
GLL kernels — by scanning them in outer-axis bands with a one-band working
set: each band is colored exactly once against the previous band's carry,
its starts are written to the output (an ``.npy`` memmap, the in-memory
assembly, or nowhere), and every tile of the band is digested into a
:class:`TileRecord`.  With a log, completed bands and a verified carry
checkpoint make a killed run resumable at band granularity.
``docs/tiling.md`` derives the decomposition and the memory model.

Contents:

* :mod:`~repro.tiling.plan` — tile decomposition (:func:`plan_tiles`,
  :func:`derive_tile_shape`, :func:`padded_box`).
* :mod:`~repro.tiling.seams` — the band pass (:func:`seam_pass`).
* :mod:`~repro.tiling.stitch` — the orchestrator (:func:`color_tiled`):
  output modes, resume, the combined digest.
* :mod:`~repro.tiling.runlog` — the JSONL tile log and carry checkpoint
  (:class:`TileLogWriter`, :func:`read_tile_log`).
"""

from repro.tiling.plan import (
    Box,
    Tile,
    TilePlan,
    derive_tile_shape,
    padded_box,
    plan_tiles,
)
from repro.tiling.runlog import TileLogWriter, TileRecord, read_tile_log
from repro.tiling.seams import SeamResult, seam_pass
from repro.tiling.stitch import TiledColoring, TilingError, color_tiled

__all__ = [
    "Box",
    "SeamResult",
    "Tile",
    "TileLogWriter",
    "TilePlan",
    "TileRecord",
    "TiledColoring",
    "TilingError",
    "color_tiled",
    "derive_tile_shape",
    "padded_box",
    "plan_tiles",
    "read_tile_log",
    "seam_pass",
]
