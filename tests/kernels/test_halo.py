"""The region kernel: ``color_region`` against monolithic GLL.

Presets on a region's first and last row (2D) or plane (3D), and on its
first and last cells along the fastest axis, sit next to the padded border
of the region's layout; presetting them at their monolithic starts must
reproduce the monolithic coloring of the region exactly.
"""

import numpy as np
import pytest

from repro.core.algorithms.registry import color_with
from repro.core.problem import IVCInstance
from repro.kernels.halo import color_region


def _weights(shape, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 40, size=shape)
    weights[rng.random(size=shape) < 0.2] = 0
    return weights


def _gll(weights):
    if weights.ndim == 2:
        inst = IVCInstance.from_grid_2d(weights)
    else:
        inst = IVCInstance.from_grid_3d(weights)
    starts = color_with(inst, "GLL", fast=False).starts
    return np.asarray(starts, dtype=np.int64).reshape(weights.shape)


def _edge(shape, axis, side):
    mask = np.zeros(shape, dtype=bool)
    index = [slice(None)] * len(shape)
    index[axis] = 0 if side == "first" else -1
    mask[tuple(index)] = True
    return mask


SHAPES = [(6, 5), (1, 7), (7, 1), (4, 3, 5), (1, 1, 6), (3, 2, 1)]


@pytest.mark.parametrize("shape", SHAPES)
def test_region_without_presets_is_monolithic_gll(shape):
    weights = _weights(shape, seed=1)
    assert np.array_equal(color_region(weights), _gll(weights))


@pytest.mark.parametrize("side", ["first", "last"])
@pytest.mark.parametrize("axis", ["outer", "inner"])
@pytest.mark.parametrize("shape", SHAPES)
def test_presets_on_region_edges_match_monolithic(shape, axis, side):
    weights = _weights(shape, seed=2)
    truth = _gll(weights)
    mask = _edge(shape, -1 if axis == "outer" else 0, side)
    preset = np.where(mask, truth, 0)
    assert np.array_equal(color_region(weights, mask, preset), truth)


@pytest.mark.parametrize("shape", [(5, 9), (3, 4, 7)])
def test_band_with_carry_and_last_row_preset_matches_monolithic(shape):
    # A band cut out of a larger grid along the outer axis: its first row or
    # plane is the carry from the previous band, and its last one is preset
    # too; both are read only where the monolithic scan reads them.
    weights = _weights(shape, seed=3)
    truth = _gll(weights)
    lo, hi = 2, shape[-1] - 1
    band = weights[..., lo:hi]
    mask = _edge(band.shape, -1, "first") | _edge(band.shape, -1, "last")
    preset = np.where(mask, truth[..., lo:hi], 0)
    assert np.array_equal(color_region(band, mask, preset), truth[..., lo:hi])


def test_preset_mask_without_starts_is_rejected():
    weights = _weights((3, 3))
    with pytest.raises(ValueError):
        color_region(weights, np.ones((3, 3), dtype=bool))
    with pytest.raises(ValueError):
        color_region(weights, np.ones((3, 4), dtype=bool), np.zeros((3, 4)))
