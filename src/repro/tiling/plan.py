"""Tile decomposition of a stencil grid.

A :class:`TilePlan` cuts an ``(X, Y[, Z])`` grid into axis-aligned tiles,
numbered in scan order and grouped into outer-axis *bands* — the units the
band pass (:mod:`repro.tiling.seams`) colors, logs and resumes by.  Tiles
are the units of the per-tile digests and records.

With axes ordered ``(i, j[, k])`` and GLL scanning ``i`` innermost and the
last axis outermost, the cells a tile's GLL starts depend on from outside
it lie in its :func:`padded_box`: one cell before and the *zipper* cell
after on the inner axes (cell ``(i+1, j-1)`` precedes ``(i, j)``), one
column/plane before on the outer axis.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.runtime.config import TilingConfig

__all__ = [
    "Box",
    "Tile",
    "TilePlan",
    "plan_tiles",
    "derive_tile_shape",
    "padded_box",
    "local_slices",
]

#: A half-open per-axis box: ``((lo0, hi0), (lo1, hi1)[, (lo2, hi2)])``.
Box = tuple[tuple[int, int], ...]

#: Per-cell ``int64`` working arrays of the band kernel in the tiler's memory
#: model (``docs/tiling.md``): ``color_region`` -> ``first_fit_pass`` holds
#: the band's weights and the carry's initial starts, their padded copies,
#: and the layout's ``interior`` and ``unpad`` ids.  The visit order and the
#: flat copy of the result lift the traced peak to ~8 per cell; the constant
#: stays, as it sets the tile shapes derived from a memory budget (and so
#: plan fingerprints and tiled digests).
WORKING_ARRAYS = 6


def box_cells(box: Box) -> int:
    """Cell count of a box."""
    return math.prod(hi - lo for lo, hi in box)


def local_slices(box: Box, frame: Box) -> tuple[slice, ...]:
    """``box`` as index slices into an array covering ``frame``."""
    return tuple(slice(lo - flo, hi - flo) for (lo, hi), (flo, _) in zip(box, frame))


@dataclass(frozen=True)
class Tile:
    """One tile: its grid coordinates, flat position, and interior box."""

    index: tuple[int, ...]
    pos: int
    box: Box

    @property
    def cells(self) -> int:
        return box_cells(self.box)


@dataclass(frozen=True)
class TilePlan:
    """The full decomposition: every tile, plus the plan's identity."""

    shape: tuple[int, ...]
    tile_shape: tuple[int, ...]
    counts: tuple[int, ...]
    tiles: tuple[Tile, ...]

    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    def bands(self) -> list[list[Tile]]:
        """Tiles grouped by outer-axis (last-axis) band, in scan order.

        Band ``b`` holds every tile whose last-axis range is the ``b``-th
        tile-edge interval; the band pass streams these bands sequentially
        (bands depend only on the previous band's trailing column/plane).
        """
        out: list[list[Tile]] = [[] for _ in range(self.counts[-1])]
        for tile in self.tiles:
            out[tile.index[-1]].append(tile)
        return out

    def fingerprint(self) -> str:
        """Hex digest naming this decomposition (for resume-log matching)."""
        spec = f"{'x'.join(map(str, self.shape))}|{'x'.join(map(str, self.tile_shape))}"
        return hashlib.blake2b(spec.encode(), digest_size=12).hexdigest()


def plan_tiles(shape, tile_shape) -> TilePlan:
    """Partition ``shape`` into tiles of (at most) ``tile_shape``.

    Edge tiles are clamped, so grids not divisible by the tile shape are
    fine; a tile shape at least the grid shape degenerates to a single tile
    (and the tiler then has no seams at all).
    """
    shape = tuple(int(d) for d in shape)
    tile_shape = tuple(int(t) for t in tile_shape)
    if len(shape) not in (2, 3):
        raise ValueError(f"grid must be 2D or 3D, got {len(shape)} axes")
    if len(tile_shape) != len(shape):
        raise ValueError(f"tile rank {len(tile_shape)} != grid rank {len(shape)}")
    if any(d < 1 for d in shape) or any(t < 1 for t in tile_shape):
        raise ValueError("grid and tile dimensions must be positive")
    tile_shape = tuple(min(t, d) for t, d in zip(tile_shape, shape))
    counts = tuple(-(-d // t) for d, t in zip(shape, tile_shape))

    tiles: list[Tile] = []
    pos = 0
    # C-order over tile indices, so the flat position is the scan order of
    # tile origins — deterministic and independent of execution order.
    def rec(prefix: tuple[int, ...]) -> None:
        nonlocal pos
        axis = len(prefix)
        if axis == len(shape):
            box = tuple(
                (c * t, min((c + 1) * t, d))
                for c, t, d in zip(prefix, tile_shape, shape)
            )
            tiles.append(Tile(index=prefix, pos=pos, box=box))
            pos += 1
            return
        for c in range(counts[axis]):
            rec(prefix + (c,))

    rec(())
    return TilePlan(shape=shape, tile_shape=tile_shape, counts=counts, tiles=tuple(tiles))


def derive_tile_shape(shape, config: TilingConfig) -> tuple[int, ...]:
    """The tile shape for a grid under a :class:`TilingConfig`.

    An explicit ``tile_shape`` wins (clamped to the grid).  Otherwise a
    near-cubic shape targeting ``tile_cells`` is derived; a
    ``memory_budget_mb`` additionally caps the outer-axis tile width so one
    streamed seam band — ``prod(shape[:-1]) × (t_last + 1)`` cells times
    :data:`WORKING_ARRAYS` int64 arrays — fits the budget.
    """
    shape = tuple(int(d) for d in shape)
    if config.tile_shape is not None:
        if len(config.tile_shape) != len(shape):
            raise ValueError(
                f"tile_shape rank {len(config.tile_shape)} != grid rank {len(shape)}"
            )
        return tuple(min(t, d) for t, d in zip(config.tile_shape, shape))
    cells = config.tile_cells
    max_last = shape[-1]
    if config.memory_budget_mb:
        budget_cells = (config.memory_budget_mb << 20) // (8 * WORKING_ARRAYS)
        inner = math.prod(shape[:-1])
        max_last = max(1, min(max_last, budget_cells // max(inner, 1) - 1))
        cells = max(1, min(cells, budget_cells))
    edge = max(1, round(cells ** (1.0 / len(shape))))
    tile = [min(edge, d) for d in shape]
    tile[-1] = min(tile[-1], max_last)
    return tuple(tile)


def padded_box(box: Box, shape: tuple[int, ...]) -> Box:
    """The tile box extended by the cells its starts depend on (clamped).

    One cell before and the zipper cell after on the inner axes, one
    column/plane *before only* on the outer axis — GLL never looks forward
    along the outer axis.
    """
    (a0, a1), rest = box[0], box[1:]
    X = shape[0]
    out = [(max(a0 - 1, 0), min(a1 + 1, X))]
    if len(shape) == 3:
        (b0, b1), Y = rest[0], shape[1]
        out.append((max(b0 - 1, 0), min(b1 + 1, Y)))
        rest = rest[1:]
    (c0, c1) = rest[0]
    out.append((max(c0 - 1, 0), c1))
    return tuple(out)
