"""The band kernel: ``color_region`` and ``gll_suffix`` against monolithic GLL.

A region's first column (2D) or plane (3D) may be a *carry* of known
starts: every carry cell precedes every other cell of the region in the
GLL scan, so taking the carry at its monolithic starts must reproduce the
monolithic coloring of the region exactly.  ``gll_suffix`` resumes the
scan at any position of the line-by-line order and must never read the
starts it recolors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms.registry import color_with
from repro.core.problem import IVCInstance
from repro.core.orderings import line_by_line_order
from repro.kernels.halo import color_region, gll_suffix
from repro.kernels.substrate import StencilLayout


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


def _gll_positions(cells, shape):
    """The line-by-line order's position of every flat id of ``cells``."""
    coords = np.unravel_index(np.asarray(cells, dtype=np.int64), shape)
    return np.ravel_multi_index(coords[::-1], shape[::-1])


SHAPES = [(6, 5), (1, 7), (7, 1), (4, 3, 5), (1, 1, 6), (3, 2, 1)]


@pytest.mark.parametrize("shape", SHAPES)
def test_region_without_presets_is_monolithic_gll(shape):
    weights = _weights(shape, seed=1)
    assert np.array_equal(color_region(weights), _gll(weights))


@pytest.mark.parametrize("shape", SHAPES)
def test_carry_on_region_matches_monolithic(shape):
    weights = _weights(shape, seed=2)
    truth = _gll(weights)
    assert np.array_equal(color_region(weights, truth[..., 0]), truth)


@pytest.mark.parametrize("shape", [(5, 9), (3, 4, 7)])
def test_band_with_carry_matches_monolithic(shape):
    # A band cut out of a larger grid along the outer axis, led by the
    # previous band's last row or plane.
    weights = _weights(shape, seed=3)
    truth = _gll(weights)
    lo, hi = 2, shape[-1] - 1
    band = weights[..., lo:hi]
    assert np.array_equal(color_region(band, truth[..., lo]), truth[..., lo:hi])


def test_wrong_shaped_carry_is_rejected():
    weights = _weights((3, 4))
    for carry in (np.zeros(4), np.zeros(1), np.zeros((3, 1)), np.int64(0)):
        with pytest.raises(ValueError, match="carry shape"):
            color_region(weights, carry)


_shapes = st.one_of(
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
)


@given(shape=_shapes, seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=80, deadline=None)
def test_gll_suffix_never_reads_the_cells_it_recolors(shape, seed, data):
    # Final starts before pos and garbage from pos on: the result is the
    # monolithic coloring, whatever the garbage.
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 30, size=shape)
    weights[rng.random(size=shape) < 0.3] = 0
    truth = _gll(weights).ravel()
    n = weights.size
    pos = data.draw(st.integers(0, n - 1), label="pos")
    layout = StencilLayout.of(shape)
    suffix = _gll_positions(np.arange(n), shape) >= pos
    for garbage in (-1, 10**9, rng.integers(-1, 99, size=n)):
        starts = truth.copy()
        starts[suffix] = np.broadcast_to(garbage, n)[suffix]
        got = gll_suffix(layout, weights, starts, pos)
        assert np.array_equal(got, truth)


@pytest.mark.parametrize("shape", [(4, 5), (5, 1), (1, 6), (3, 2, 4), (2, 3, 1)])
def test_gll_suffix_from_every_position_matches_a_full_pass(shape):
    weights = _weights(shape, seed=4)
    truth = _gll(weights).ravel()
    inst = IVCInstance.from_grid(weights)
    order = np.asarray(line_by_line_order(inst))
    assert _gll_positions(order, shape).tolist() == list(range(weights.size))
    layout = StencilLayout.of(shape)
    for pos in range(weights.size):
        stale = truth.copy()
        stale[order[pos:]] += 7
        assert np.array_equal(gll_suffix(layout, weights, stale, pos), truth), pos
