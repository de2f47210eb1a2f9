"""The first-fit primitives, directly and at the hazards of their passes.

``first_fit_intervals`` (the cone walk's batch fit) and one cell of the
compiled loop are checked against a test-local copy of the sequential
sort-and-scan, slot by slot.  The pass tests diff the cases a pass treats
specially against the reference loops or monolithic GLL: recolor passes
whose zero-weight cells enter with stale or ``UNCOLORED`` starts, weights
and starts on either side of ``2**29`` (where 32-bit arithmetic would
overflow), zero-weight and uncolored cells tied with real starts, a 1×1
grid, a region led by a carry of arbitrary starts, and the half-stencil
read of fresh GLL passes on 1-wide and 3D grids.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.greedy_engine import first_fit_start, greedy_color, greedy_recolor_pass
from repro.core.orderings import line_by_line_order, random_order, zorder_order
from repro.core.problem import IVCInstance
from repro.kernels import native, wavefront
from repro.kernels.halo import color_region
from repro.kernels.substrate import StencilLayout
from repro.kernels.wavefront import (
    UNCOLORED,
    first_fit_intervals,
    wavefront_greedy_color,
    wavefront_recolor_pass,
)


def _scan(starts, weights, w):
    """The paper's sequential sort-and-scan over one neighbourhood."""
    if w == 0:
        return 0
    pairs = sorted(
        (s, s + wn) for s, wn in zip(starts, weights) if s != UNCOLORED and wn > 0
    )
    cur = 0
    for lo, hi in pairs:
        if lo - cur >= w:
            return cur
        cur = max(cur, hi)
    return cur


# Small starts and widths so tied lower ends and gapless rows are common.
_slot = st.tuples(st.one_of(st.just(UNCOLORED), st.integers(0, 24)), st.integers(0, 6))


@st.composite
def _batches(draw):
    d = draw(st.sampled_from([0, 1, 4, 8, 13, 26]))
    b = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_slot, min_size=d, max_size=d), min_size=b, max_size=b))
    s = np.array([[a for a, _ in row] for row in rows], dtype=np.int64).reshape(b, d)
    wn = np.array([[c for _, c in row] for row in rows], dtype=np.int64).reshape(b, d)
    w = np.array(draw(st.lists(st.integers(0, 10), min_size=b, max_size=b)), dtype=np.int64)
    return s, wn, w


@st.composite
def _gapless(draw):
    """Rows of packed, fully valid intervals: no gap until the last end."""
    d = draw(st.sampled_from([1, 8, 26]))
    b = draw(st.integers(1, 4))
    s = np.empty((b, d), dtype=np.int64)
    wn = np.empty((b, d), dtype=np.int64)
    for r in range(b):
        widths = np.array(draw(st.lists(st.integers(1, 5), min_size=d, max_size=d)))
        perm = np.array(draw(st.permutations(range(d))))
        s[r] = (np.cumsum(widths) - widths)[perm]
        wn[r] = widths[perm]
    w = np.array(draw(st.lists(st.integers(1, 10), min_size=b, max_size=b)), dtype=np.int64)
    return s, wn, w


def _check(s, wn, w):
    want = [_scan(s[r], wn[r], int(w[r])) for r in range(len(w))]
    got = first_fit_intervals(s, wn, w)
    assert got.dtype == np.int64
    assert got.tolist() == want
    # The batch loop hands in column-major views; same answers.
    cols = first_fit_intervals(np.ascontiguousarray(s.T).T, np.ascontiguousarray(wn.T).T, w)
    assert cols.tolist() == want


@given(_batches())
@settings(max_examples=300, deadline=None)
@example((np.zeros((3, 0), np.int64), np.zeros((3, 0), np.int64), np.array([0, 1, 5])))
@example((np.array([[4, 4, 4, 0]]), np.array([[2, 3, 0, 4]]), np.array([0])))
@example((np.array([[UNCOLORED] * 8]), np.array([[5] * 8]), np.array([3])))
def test_first_fit_intervals_matches_sequential_scan(batch):
    _check(*batch)


@given(_gapless())
@settings(max_examples=100, deadline=None)
@example((np.array([[3, 0, 5]]), np.array([[2, 3, 4]]), np.array([1])))
def test_first_fit_intervals_without_a_gap_lands_past_the_last_end(batch):
    s, wn, w = batch
    _check(s, wn, w)
    assert first_fit_intervals(s, wn, w).tolist() == (s + wn).max(axis=1).tolist()


def test_zero_weight_neighbour_does_not_raise_the_frontier():
    # A zero-weight slot at 5 sits in the gap [2, 6); counted as an end it
    # would push the width-4 fit past [6, 10).
    s = np.array([[0, 5, 6]])
    wn = np.array([[2, 0, 4]])
    assert first_fit_intervals(s, wn, np.array([4])).tolist() == [2]


@given(_batches(), st.integers(0, 1 << 40))
@settings(max_examples=200, deadline=None)
@example((np.array([[4, 4, 4, 0]]), np.array([[2, 0, 3, 4]]), np.array([0])), 0)
@example((np.array([[UNCOLORED, 3]]), np.array([[5, 0]]), np.array([3])), 0)
@example((np.zeros((2, 0), np.int64), np.zeros((2, 0), np.int64), np.array([0, 4])), 0)
def test_native_fit_matches_sequential_scan(batch, shift):
    # One cell per row, its neighbours the row's slots: a flat array of
    # the ``d`` slots and then the cell, read through offsets ``-d..-1``.
    # ``shift`` moves real starts up to 2**40.
    s, wn, w = batch
    d = s.shape[1]
    s = np.where(s == UNCOLORED, s, s + shift)
    for r in range(len(w)):
        starts = np.append(s[r], UNCOLORED)
        weights = np.append(wn[r], w[r])
        native.first_fit(starts, weights, np.array([d]), np.arange(-d, 0))
        assert starts[:d].tolist() == s[r].tolist()
        assert starts[d] == _scan(s[r], wn[r], int(w[r]))


# -- recolor passes ---------------------------------------------------------


def _instance(weights):
    if weights.ndim == 2:
        return IVCInstance.from_grid_2d(weights)
    return IVCInstance.from_grid_3d(weights)


def _reference_pass(inst, starts, order, preset=None, values=None):
    """The sequential first-fit loop over ``order``, from any ``starts``.

    Unlike ``greedy_recolor_pass`` it accepts ``UNCOLORED`` entries.  A cell
    under the optional ``preset`` mask takes its ``values`` entry at its
    turn instead of a first fit.
    """
    out = np.asarray(starts, dtype=np.int64).copy()
    indptr, indices, weights = inst.graph.indptr, inst.graph.indices, inst.weights
    for v in order:
        v = int(v)
        if preset is not None and preset[v]:
            out[v] = values[v]
            continue
        nbs = indices[indptr[v] : indptr[v + 1]]
        live = [u for u in nbs if out[u] != UNCOLORED and weights[u] > 0]
        out[v] = first_fit_start(
            [out[u] for u in live], [out[u] + weights[u] for u in live], int(weights[v])
        )
    return out


RECOLOR_SHAPES = [(1, 6), (6, 1), (5, 7), (1, 1, 6), (3, 4, 3)]


@pytest.mark.parametrize("entry", ["stale", "uncolored"])
@pytest.mark.parametrize("order_name", ["line_by_line", "random"])
@pytest.mark.parametrize("shape", RECOLOR_SHAPES)
def test_recolor_pass_with_stale_zero_weight_starts(shape, order_name, entry):
    # Zero-weight cells hold a nonzero (or no) start when the pass begins;
    # the later-order neighbours keep their old values until their batch
    # runs, so even the line-by-line order must gather the full stencil.
    rng = np.random.default_rng(sum(shape) * 7 + len(order_name))
    weights = rng.integers(1, 20, size=shape)
    weights[rng.random(size=shape) < 0.3] = 0
    inst = _instance(weights)
    base = greedy_color(inst, random_order(inst, seed=3), fast=False).starts.copy()
    zero = inst.weights == 0
    base[zero] = UNCOLORED if entry == "uncolored" else rng.integers(1, 50, zero.sum())
    if order_name == "line_by_line":
        order = np.asarray(line_by_line_order(inst), dtype=np.int64)
    else:
        order = rng.permutation(inst.num_vertices).astype(np.int64)
    want = _reference_pass(inst, base, order)
    assert np.array_equal(wavefront_recolor_pass(inst, base, order), want)
    if entry == "stale":
        assert np.array_equal(greedy_recolor_pass(inst, base, order, fast=False), want)


# -- 32-bit limits -----------------------------------------------------------

GUARD = 1 << 29


@pytest.mark.parametrize("over", [0, 1], ids=["int32", "int64"])
@pytest.mark.parametrize("case", ["fresh", "uncolored", "high_starts"])
@pytest.mark.parametrize("shape", [(5, 6), (3, 4, 3)])
def test_int32_narrowing_at_its_guard(shape, case, over):
    # A pass whose ``len(deltas) * max(w)`` or, given starts,
    # ``max(starts) + max(w)`` reaches 2**29 has starts and ends that an
    # int32 loop with a negative void would overflow.  ``over=0`` puts the
    # deciding term at 2**29 - 1 (or just under it), ``over=1`` at the
    # smallest value past it; the int64 loop is exact on both sides.  Zero
    # weights throughout, some holding stale starts; random orders read
    # the full stencil.
    rng = np.random.default_rng(len(shape) * 10 + len(case) + over)
    d = 8 if len(shape) == 2 else 26
    top = (GUARD - 1) // d + over if case != "high_starts" else 40
    weights = rng.integers(top // 2, top + 1, size=shape)
    weights[rng.random(size=shape) < 0.25] = 0
    weights.flat[0] = top
    inst = _instance(weights)
    order = rng.permutation(inst.num_vertices).astype(np.int64)
    zero = np.flatnonzero(inst.weights == 0)
    if case == "fresh":
        got = wavefront_greedy_color(inst, order)
        want = greedy_color(inst, order, fast=False).starts
    elif case == "uncolored":
        base = np.full(inst.num_vertices, UNCOLORED, dtype=np.int64)
        stale = rng.random(inst.num_vertices) < 0.5
        base[stale] = rng.integers(0, top, size=stale.sum())
        got = wavefront_recolor_pass(inst, base, order)
        want = _reference_pass(inst, base, order)
    else:
        base = greedy_color(inst, random_order(inst, seed=3), fast=False).starts
        base = base + (GUARD - 1 + over - top - base.max())
        base[zero[0]] = base.max()  # a zero-weight cell at the top start
        got = wavefront_recolor_pass(inst, base, order)
        want = greedy_recolor_pass(inst, base, order, fast=False)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(6, 7), (3, 4, 3)])
@pytest.mark.parametrize("edge", ["stale_top", "tied_void"])
def test_packed_edges_in_recolor_passes(shape, edge):
    # ``stale_top``: zero-weight cells enter above every real start, an
    # interval the scan must skip though its lower end sorts last.
    # ``tied_void``: zero-weight and uncolored cells share starts with
    # real neighbours, so skipped and real intervals tie in the sort.
    rng = np.random.default_rng(len(shape) * 3 + len(edge))
    weights = rng.integers(1, 30, size=shape)
    weights[rng.random(size=shape) < 0.3] = 0
    inst = _instance(weights)
    base = greedy_color(inst, random_order(inst, seed=5), fast=False).starts.copy()
    zero = inst.weights == 0
    if edge == "stale_top":
        base[zero] = base.max() + 1
    else:
        live = np.flatnonzero(~zero)
        base[zero] = base[rng.choice(live, zero.sum())]
        base[rng.choice(live, len(live) // 5, replace=False)] = UNCOLORED
    order = rng.permutation(inst.num_vertices).astype(np.int64)
    assert np.array_equal(
        wavefront_recolor_pass(inst, base, order), _reference_pass(inst, base, order)
    )


@pytest.mark.parametrize("weight", [0, 5])
def test_packed_single_cell_grid(weight):
    inst = _instance(np.array([[weight]]))
    order = np.zeros(1, dtype=np.int64)
    assert wavefront_greedy_color(inst, order).tolist() == [0]
    for stale in (UNCOLORED, 0, 7):
        got = wavefront_recolor_pass(inst, np.array([stale]), order)
        assert got.tolist() == [0]


# -- the carry --------------------------------------------------------------


@given(
    shape=st.one_of(
        st.tuples(st.integers(1, 9), st.integers(1, 9)),
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    ),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
@example(shape=(6, 2), seed=0)
@example(shape=(3, 4, 2), seed=1)
def test_region_with_a_carry_matches_sequential_scan(shape, seed):
    # The sequential GLL scan that sets the first outer slice to arbitrary
    # carry values at its turn; zero weights throughout, carry included.
    # Shapes with two outer indices are a band of width 1 after its carry.
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 30, size=shape)
    weights[rng.random(size=shape) < 0.3] = 0
    carry = rng.integers(0, 60, size=shape[:-1])
    inst = _instance(weights)
    mask = np.zeros(shape, dtype=bool)
    mask[..., 0] = True
    values = np.zeros(shape, dtype=np.int64)
    values[..., 0] = carry
    fresh = np.full(inst.num_vertices, UNCOLORED, dtype=np.int64)
    order = line_by_line_order(inst)
    want = _reference_pass(inst, fresh, order, mask.ravel(), values.ravel())
    assert np.array_equal(color_region(weights, carry), want.reshape(shape))


# -- the half-stencil gather ------------------------------------------------


def _gll_levels(shape):
    """The GLL wavefront level ``i + 2j (+ 4k)`` of every cell."""
    return sum(axis << a for a, axis in enumerate(np.indices(shape)))


HALF_SHAPES = [
    (1, 9), (9, 1), (1, 1), (1, 1, 8), (8, 1, 1), (1, 5, 1), (4, 5, 3), (6, 6, 6),
]


@pytest.mark.parametrize("shape", HALF_SHAPES)
def test_gll_half_gather_matches_reference(shape, monkeypatch):
    rng = np.random.default_rng(len(shape) + sum(shape))
    weights = rng.integers(1, 25, size=shape)
    weights[rng.random(size=shape) < 0.25] = 0
    inst = _instance(weights)
    order = np.asarray(line_by_line_order(inst), dtype=np.int64)
    gathered = []
    loop = native.first_fit

    def spy(starts, weights, cells, deltas):
        gathered.append(len(deltas))
        return loop(starts, weights, cells, deltas)

    monkeypatch.setattr(native, "first_fit", spy)
    got = wavefront_greedy_color(inst, order)
    assert gathered == [4 if len(shape) == 2 else 13]
    assert np.array_equal(got, greedy_color(inst, order, fast=False).starts)


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 7), (7, 1), (4, 6), (1, 1, 5), (5, 1, 1), (3, 4, 2)]
)
def test_line_by_line_detection(shape):
    inst = _instance(np.ones(shape, dtype=np.int64))
    lbl = np.asarray(line_by_line_order(inst), dtype=np.int64)
    assert wavefront._is_line_by_line(lbl, shape)
    for other in (zorder_order(inst), random_order(inst, seed=1)):
        other = np.asarray(other, dtype=np.int64)
        assert wavefront._is_line_by_line(other, shape) == np.array_equal(other, lbl)


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
def test_earlier_deltas_are_the_gll_predecessors(shape):
    layout = StencilLayout.of(shape)
    earlier = layout.earlier_deltas
    assert len(earlier) * 2 == len(layout.deltas)
    assert sorted((-earlier).tolist() + earlier.tolist()) == sorted(layout.deltas.tolist())
    # For every cell, the earlier half reaches exactly its lower-level
    # neighbours on the grid.
    levels = layout.pad(_gll_levels(shape).ravel(), -1)
    for p in layout.interior:
        on_grid = [q for q in (p + layout.deltas) if levels[q] >= 0]
        lower = {q for q in on_grid if levels[q] < levels[p]}
        assert lower == {q for q in (p + earlier) if levels[q] >= 0}
    with pytest.raises(dataclasses.FrozenInstanceError):
        layout.earlier_deltas = layout.deltas
    with pytest.raises(TypeError):
        StencilLayout(layout.padded, layout.deltas, layout.interior, layout.unpad, earlier)
