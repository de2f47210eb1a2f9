"""Tile-plan geometry: exact covers, padded boxes, derived shapes."""

import itertools

import numpy as np
import pytest

from repro.runtime.config import TilingConfig
from repro.tiling import derive_tile_shape, padded_box, plan_tiles


def _cells(box):
    """Every cell coordinate inside a box, as a set of tuples."""
    ranges = [range(lo, hi) for lo, hi in box]
    out = set()

    def rec(prefix, rest):
        if not rest:
            out.add(tuple(prefix))
            return
        for v in rest[0]:
            rec(prefix + [v], rest[1:])

    rec([], ranges)
    return out


class TestPlanCover:
    @pytest.mark.parametrize(
        "shape,tile_shape",
        [
            ((10, 7), (4, 3)),     # non-divisible ragged edge
            ((16, 16), (8, 8)),    # exact division
            ((8, 8), (16, 16)),    # single tile larger than the grid
            ((9, 5), (1, 1)),      # tile smaller than the halo margin
            ((1, 6), (2, 2)),      # degenerate line
            ((6, 5, 4), (3, 3, 3)),
            ((5, 4, 3), (5, 4, 3)),  # single 3D tile
        ],
    )
    def test_tiles_partition_the_grid_exactly(self, shape, tile_shape):
        plan = plan_tiles(shape, tile_shape)
        seen = set()
        for tile in plan.tiles:
            cells = _cells(tile.box)
            assert not (cells & seen), "tiles overlap"
            seen |= cells
        assert len(seen) == int(np.prod(shape))

    def test_single_tile_when_tile_covers_grid(self):
        plan = plan_tiles((8, 8), (16, 16))
        assert plan.num_tiles == 1
        assert plan.tiles[0].box == ((0, 8), (0, 8))

    def test_positions_are_scan_ordered(self):
        plan = plan_tiles((10, 10), (4, 4))
        assert [t.pos for t in plan.tiles] == list(range(plan.num_tiles))

    def test_bands_group_by_outer_axis(self):
        plan = plan_tiles((10, 7), (4, 3))
        bands = plan.bands()
        assert len(bands) == plan.counts[-1]
        for b, band in enumerate(bands):
            for tile in band:
                assert tile.index[-1] == b

    def test_fingerprint_distinguishes_plans(self):
        a = plan_tiles((10, 10), (4, 4))
        b = plan_tiles((10, 10), (5, 5))
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == plan_tiles((10, 10), (4, 4)).fingerprint()


class TestHaloGeometry:
    def test_padded_box_clamps_at_borders(self):
        # Inner axes pad one cell both ways; the outer (last) axis pads one
        # column *before only* — GLL never looks forward along it.
        assert padded_box(((0, 4), (0, 4)), (10, 10)) == ((0, 5), (0, 4))
        assert padded_box(((4, 8), (4, 8)), (10, 10)) == ((3, 9), (3, 8))
        assert padded_box(((8, 10), (8, 10)), (10, 10)) == ((7, 10), (7, 10))

    @pytest.mark.parametrize(
        "box,shape",
        [
            (((4, 8), (3, 6)), (12, 9)),
            (((0, 4), (0, 3)), (12, 9)),
            (((8, 12), (6, 9)), (12, 9)),
            (((2, 4), (2, 4), (2, 4)), (6, 6, 6)),
            (((0, 3), (0, 3), (0, 3)), (6, 6, 6)),
        ],
    )
    def test_padded_box_holds_every_outside_predecessor(self, box, shape):
        # Every stencil neighbour outside the tile that precedes one of its
        # cells in the GLL scan (last axis outermost) lies in the padded box.
        padded = _cells(padded_box(box, shape))
        inside = _cells(box)
        steps = itertools.product((-1, 0, 1), repeat=len(shape))
        offsets = [d for d in steps if any(d)]
        for cell in inside:
            for d in offsets:
                nbr = tuple(c + o for c, o in zip(cell, d))
                if not all(0 <= v < n for v, n in zip(nbr, shape)) or nbr in inside:
                    continue
                if nbr[::-1] < cell[::-1]:
                    assert nbr in padded, f"predecessor {nbr} of {cell} missing"


class TestDeriveTileShape:
    def test_explicit_tile_shape_wins(self):
        cfg = TilingConfig(tile_shape=(5, 6))
        assert derive_tile_shape((100, 100), cfg) == (5, 6)

    def test_derived_shape_fits_grid_rank(self):
        cfg = TilingConfig(tile_cells=64)
        shape2 = derive_tile_shape((100, 100), cfg)
        shape3 = derive_tile_shape((20, 20, 20), cfg)
        assert len(shape2) == 2 and all(d >= 1 for d in shape2)
        assert len(shape3) == 3 and all(d >= 1 for d in shape3)

    def test_memory_budget_caps_the_tile(self):
        roomy = TilingConfig(tile_cells=1 << 16)
        capped = TilingConfig(tile_cells=1 << 16, memory_budget_mb=1)
        big = derive_tile_shape((4096, 4096), roomy)
        small = derive_tile_shape((4096, 4096), capped)
        assert int(np.prod(small)) <= int(np.prod(big))
