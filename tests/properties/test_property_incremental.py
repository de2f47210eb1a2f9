"""Property-based tests: incremental recoloring vs recoloring from scratch.

Hypothesis drives random grids (2D and 3D, zero weights included), random
sparse dirty sets, and every registry algorithm that declares a fast path
through :func:`repro.incremental.engine.recolor_grid`, requiring the result
to be bit-identical to a cold :func:`full_recolor` of the new weights.  The
supported algorithms exercise the incremental paths (GLF's cone walk, the
GLL and GZO suffix passes); the rest must take the always-correct fallback.
Edge cases get dedicated properties: a delta touching the grid boundary, a
delta rewriting the whole grid with the cone budget opened wide enough that
the cone — not the fallback — must reproduce the from-scratch answer, GLL
and GZO deltas placed in the first, the last or every outer-axis index of
grids as thin as one cell, and streams of deltas each patching the last
answer.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.algorithms.registry import REGISTRY
from repro.core.orderings import line_by_line_order, zorder_order
from repro.core.problem import IVCInstance
from repro.incremental.engine import (
    SUPPORTED_ALGORITHMS,
    full_recolor,
    recolor_grid,
)

FAST_ALGORITHMS = tuple(
    spec.name for spec in REGISTRY.specs() if spec.fast_fn is not None
)

grids_2d = st.tuples(st.integers(2, 7), st.integers(2, 7))
grids_3d = st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4))
grids = st.one_of(grids_2d, grids_3d)
seeds = st.integers(0, 100_000)
algorithms = st.sampled_from(FAST_ALGORITHMS)


def _weights(shape, seed):
    # From 0: zero-weight vertices are skipped by first-fit and must be
    # skipped identically inside the cone walk.
    rng = np.random.default_rng(seed)
    return rng.integers(0, 10, size=shape).astype(np.int64)


def _mutate(weights, dirty, seed):
    rng = np.random.default_rng(seed)
    out = weights.copy()
    out.ravel()[dirty] = rng.integers(0, 10, size=np.asarray(dirty).size)
    return out


def _check_identical(algorithm, old_weights, new_weights, dirty, **kwargs):
    base = full_recolor(old_weights, algorithm)
    outcome = recolor_grid(
        new_weights, base, dirty, algorithm=algorithm, **kwargs
    )
    cold = full_recolor(new_weights, algorithm)
    assert np.array_equal(outcome.starts, cold), (
        algorithm, old_weights.shape, outcome.mode, outcome.fallback_reason
    )
    assert outcome.maxcolor == int((cold + new_weights).max())
    return outcome


@given(shape=grids, seed=seeds, delta_seed=seeds, algorithm=algorithms)
@settings(max_examples=60, deadline=None)
def test_sparse_delta_matches_full_recolor(shape, seed, delta_seed, algorithm):
    weights = _weights(shape, seed)
    rng = np.random.default_rng(delta_seed)
    n = weights.size
    k = int(rng.integers(1, max(2, n // 4)))
    dirty = rng.choice(n, size=min(k, n), replace=False)
    new_weights = _mutate(weights, dirty, delta_seed)
    outcome = _check_identical(algorithm, weights, new_weights, dirty)
    if algorithm not in SUPPORTED_ALGORITHMS:
        assert outcome.mode == "fallback"
        assert outcome.fallback_reason == "unsupported-algorithm"


@given(shape=grids, seed=seeds, delta_seed=seeds, algorithm=algorithms)
@settings(max_examples=40, deadline=None)
def test_boundary_touching_delta_matches_full_recolor(
    shape, seed, delta_seed, algorithm
):
    weights = _weights(shape, seed)
    n = weights.size
    # Both extreme corners: the cone walk must clip its neighbor gathers at
    # the grid boundary exactly like the from-scratch kernels do.
    dirty = np.array([0, n - 1], dtype=np.int64)
    new_weights = _mutate(weights, dirty, delta_seed)
    _check_identical(
        algorithm, weights, new_weights, dirty, max_cone_fraction=1.0
    )


@given(shape=grids, seed=seeds, delta_seed=seeds, algorithm=algorithms)
@settings(max_examples=30, deadline=None)
def test_whole_grid_delta_with_open_budget(shape, seed, delta_seed, algorithm):
    weights = _weights(shape, seed)
    n = weights.size
    dirty = np.arange(n, dtype=np.int64)
    new_weights = _mutate(weights, dirty, delta_seed)
    # Budget opened to the full grid: for supported algorithms the cone walk
    # itself (not the fallback) must reproduce the from-scratch coloring
    # even when every cell is dirty.
    outcome = _check_identical(
        algorithm, weights, new_weights, dirty, max_cone_fraction=1.0
    )
    if algorithm in SUPPORTED_ALGORITHMS:
        assert outcome.mode == "incremental"
        assert outcome.cells_recomputed >= n


@given(shape=grids, seed=seeds, delta_seed=seeds)
@settings(max_examples=20, deadline=None)
def test_whole_grid_delta_trips_default_budget(shape, seed, delta_seed):
    weights = _weights(shape, seed)
    n = weights.size
    dirty = np.arange(n, dtype=np.int64)
    new_weights = _mutate(weights, dirty, delta_seed)
    outcome = _check_identical(
        "GLF", weights, new_weights, dirty, max_cone_fraction=0.05
    )
    assert outcome.mode == "fallback"
    assert outcome.fallback_reason == "cone-budget"


thin_grids = st.one_of(
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
)


def _placed(shape, placement, rng):
    """Dirty flat indices in the first, the last, or every outer-axis index
    (the last axis: a column in 2D, a plane in 3D), or anywhere."""
    outer = shape[-1]
    cells = np.arange(int(np.prod(shape)), dtype=np.int64)
    if placement == "first":
        pool = cells[cells % outer == 0]
    elif placement == "last":
        pool = cells[cells % outer == outer - 1]
    elif placement == "every":
        # One cell of every outer index.
        rows = rng.integers(0, cells.size // outer, size=outer)
        return rows * outer + np.arange(outer)
    else:
        pool = cells
    k = int(rng.integers(1, pool.size + 1))
    return rng.choice(pool, size=k, replace=False)


@given(
    shape=thin_grids,
    seed=seeds,
    delta_seed=seeds,
    placement=st.sampled_from(["first", "last", "every", "anywhere"]),
)
@example(shape=(1, 6), seed=0, delta_seed=1, placement="every")
@example(shape=(6, 1), seed=0, delta_seed=1, placement="first")
@example(shape=(1, 4, 3), seed=0, delta_seed=1, placement="last")
@example(shape=(3, 4, 1), seed=0, delta_seed=1, placement="anywhere")
@settings(max_examples=80, deadline=None)
def test_gll_band_pass_matches_full_recolor(shape, seed, delta_seed, placement):
    weights = _weights(shape, seed)
    rng = np.random.default_rng(delta_seed)
    dirty = _placed(shape, placement, rng)
    new_weights = _mutate(weights, dirty, delta_seed)
    # The tightest budget: GLL has none, so it never falls back.
    outcome = _check_identical(
        "GLL", weights, new_weights, dirty, max_cone_fraction=0.01
    )
    assert outcome.mode == "incremental"
    # The pass starts at the first dirty cell of the line-by-line order.
    make = IVCInstance.from_grid_2d if len(shape) == 2 else IVCInstance.from_grid_3d
    order = np.asarray(line_by_line_order(make(weights)))
    pos = int(np.flatnonzero(np.isin(order, dirty))[0])
    assert outcome.cells_recomputed == weights.size - pos
    assert outcome.levels_touched == 0


@given(
    shape=thin_grids,
    seed=seeds,
    delta_seed=seeds,
    placement=st.sampled_from(["first", "last", "every", "anywhere"]),
)
@example(shape=(1, 9), seed=0, delta_seed=1, placement="last")
@example(shape=(7, 5), seed=0, delta_seed=1, placement="anywhere")
@example(shape=(3, 4, 5), seed=0, delta_seed=1, placement="every")
@settings(max_examples=80, deadline=None)
def test_gzo_suffix_pass_matches_full_recolor(shape, seed, delta_seed, placement):
    weights = _weights(shape, seed)
    rng = np.random.default_rng(delta_seed)
    dirty = _placed(shape, placement, rng)
    new_weights = _mutate(weights, dirty, delta_seed)
    # The tightest budget: GZO has none, so it never falls back.
    outcome = _check_identical(
        "GZO", weights, new_weights, dirty, max_cone_fraction=0.01
    )
    assert outcome.mode == "incremental"
    # Every cell before the first dirty cell of the Morton order keeps its
    # base start; the rest is recomputed.
    make = IVCInstance.from_grid_2d if len(shape) == 2 else IVCInstance.from_grid_3d
    order = np.asarray(zorder_order(make(weights)))
    pos = int(np.flatnonzero(np.isin(order, dirty))[0])
    assert outcome.cells_recomputed == weights.size - pos
    assert outcome.levels_touched == 0
    assert not outcome.spliced
    kept = order[:pos]
    base = full_recolor(weights, "GZO")
    assert np.array_equal(outcome.starts.ravel()[kept], base.ravel()[kept])


@given(
    shape=thin_grids,
    seed=seeds,
    delta_seed=seeds,
    algorithm=st.sampled_from(sorted(SUPPORTED_ALGORITHMS)),
    steps=st.integers(2, 6),
)
@settings(max_examples=40, deadline=None)
def test_delta_stream_matches_full_recolor_every_step(
    shape, seed, delta_seed, algorithm, steps
):
    # Each delta patches the previous *incremental* answer, never a fresh
    # one, so an error anywhere in the stream would carry to the end.
    weights = _weights(shape, seed)
    starts = full_recolor(weights, algorithm)
    rng = np.random.default_rng(delta_seed)
    n = weights.size
    for step in range(steps):
        dirty = rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False)
        weights = _mutate(weights, dirty, delta_seed + step)
        outcome = recolor_grid(weights, starts, dirty, algorithm=algorithm)
        starts = outcome.starts
        assert np.array_equal(starts, full_recolor(weights, algorithm)), (
            algorithm, shape, step, outcome.mode
        )


@given(shape=grids, seed=seeds, algorithm=algorithms)
@settings(max_examples=20, deadline=None)
def test_empty_delta_is_identity(shape, seed, algorithm):
    weights = _weights(shape, seed)
    base = full_recolor(weights, algorithm)
    outcome = recolor_grid(
        weights, base, np.array([], dtype=np.int64), algorithm=algorithm
    )
    assert outcome.mode == "incremental"
    assert outcome.cells_changed == 0
    assert np.array_equal(outcome.starts, base)
