"""Property-based differential tests: vectorized kernels vs reference loops.

Hypothesis drives random grid shapes, weights (including zeros), and vertex
orders through both code paths and requires bit-identical starts; the
compiled first-fit loop also runs from ``UNCOLORED`` and stale starts with
weights up to ``2**40``.  The layout's stencil validation, the vectorized
clique order and the slice block sums are held to the same standard against
the CSR edge list, the reference loop and the block table; GKF, SGK-ws and
3D SGK against a block-by-block loop of Section V.A.  The SGK
block-fill optimization is checked against a naive re-implementation that
rebuilds every neighbor snapshot inside the permutation loop — the exact
semantics the hoisted version must preserve.
"""

from itertools import permutations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.algorithms.clique_first import (
    _best_permutation_fill,
    _sorted_blocks,
    greedy_largest_clique_first,
    smart_greedy_largest_clique_first,
    smart_greedy_weight_sorted,
)
from repro.core.algorithms.registry import EXTENDED_ALGORITHMS, color_with
from repro.core.coloring import Coloring
from repro.core.greedy_engine import (
    UNCOLORED,
    first_fit_start,
    greedy_color,
    greedy_recolor_pass,
)
from repro.core.interval import edge_overlaps
from repro.core.orderings import clique_order
from repro.core.problem import IVCInstance
from repro.kernels.chains import bdp_recolor_order_fast
from repro.kernels.substrate import StencilLayout
from repro.kernels.wavefront import wavefront_greedy_color, wavefront_recolor_pass
from repro.runtime.config import RuntimeConfig
from repro.runtime.context import ExecutionContext, use_context

grids_2d = st.tuples(st.integers(1, 6), st.integers(1, 6))
grids_3d = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
grids = st.one_of(grids_2d, grids_3d)
seeds = st.integers(0, 100_000)


def _instance_of(weights):
    return IVCInstance.from_grid(weights)


def _instance(shape, seed):
    # Weights from 0: zero-weight vertices are always present eventually.
    return _instance_of(np.random.default_rng(seed).integers(0, 12, size=shape))


@given(shape=grids, seed=seeds, order_seed=seeds)
@settings(max_examples=40, deadline=None)
def test_greedy_kernel_matches_reference_for_random_orders(shape, seed, order_seed):
    inst = _instance(shape, seed)
    order = np.random.default_rng(order_seed).permutation(inst.num_vertices)
    order = order.astype(np.int64)
    ref = greedy_color(inst, order, fast=False)
    fast = greedy_color(inst, order, fast=True)
    assert np.array_equal(ref.starts, fast.starts)


@given(shape=grids, seed=seeds, order_seed=seeds)
@settings(max_examples=25, deadline=None)
def test_recolor_kernel_matches_reference(shape, seed, order_seed):
    inst = _instance(shape, seed)
    rng = np.random.default_rng(order_seed)
    base = greedy_color(
        inst, rng.permutation(inst.num_vertices).astype(np.int64), fast=False
    ).starts
    order = rng.permutation(inst.num_vertices).astype(np.int64)
    assert np.array_equal(
        greedy_recolor_pass(inst, base, order, fast=False),
        greedy_recolor_pass(inst, base, order, fast=True),
    )


def _sequential_pass(inst, starts, order):
    """The reference first-fit loop from any ``starts``, ``UNCOLORED``
    entries included (``greedy_recolor_pass`` refuses those)."""
    out = np.array(starts, dtype=np.int64)
    indptr, indices, weights = inst.graph.indptr, inst.graph.indices, inst.weights
    for v in order.tolist():
        nbs = indices[indptr[v] : indptr[v + 1]]
        live = [u for u in nbs if out[u] != UNCOLORED and weights[u] > 0]
        out[v] = first_fit_start(
            [out[u] for u in live], [out[u] + weights[u] for u in live], int(weights[v])
        )
    return out


@given(
    shape=grids,
    seed=seeds,
    top=st.sampled_from([1, 12, 1 << 29, 1 << 40]),
    entry=st.sampled_from(["fresh", "colored", "uncolored", "stale"]),
)
@settings(max_examples=80, deadline=None)
def test_native_pass_matches_reference_from_any_starts(shape, seed, top, entry):
    # The compiled loop, fresh or over given starts, against the sequential
    # reference: zero weights, ``UNCOLORED`` entries, stale starts on
    # zero-weight and live cells, and weights up to 2**40.
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, top + 1, size=shape)
    weights[rng.random(size=shape) < 0.25] = 0
    inst = _instance_of(weights)
    n = inst.num_vertices
    order = rng.permutation(n).astype(np.int64)
    if entry == "fresh":
        got = wavefront_greedy_color(inst, order)
        assert np.array_equal(got, greedy_color(inst, order, fast=False).starts)
        return
    base = greedy_color(inst, rng.permutation(n), fast=False).starts.copy()
    if entry == "uncolored":
        base[rng.random(n) < 0.4] = UNCOLORED
    elif entry == "stale":
        stale = rng.random(n) < 0.4
        base[stale] = rng.integers(0, 3 * top, size=int(stale.sum()))
    got = wavefront_recolor_pass(inst, base, order)
    assert np.array_equal(got, _sequential_pass(inst, base, order))


@given(shape=grids, seed=seeds)
@settings(max_examples=15, deadline=None)
def test_registry_fast_paths_identical_for_every_algorithm(shape, seed):
    inst = _instance(shape, seed)
    for name in EXTENDED_ALGORITHMS:
        ref = color_with(inst, name, fast=False)
        fast = color_with(inst, name, fast=True)
        assert np.array_equal(ref.starts, fast.starts), name


@given(shape=grids, seed=seeds, span=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_layout_conflicts_match_csr_edge_scan(shape, seed, span):
    # Starts drawn from a small range collide on purpose; ``span`` 1 puts
    # every start at 0, so each pair of non-empty neighbours conflicts.
    inst = _instance(shape, seed)
    rng = np.random.default_rng(seed + 1)
    starts = rng.integers(0, span, size=inst.num_vertices)
    edges = inst.geometry.csr.edges()
    expected = edges[edge_overlaps(starts, inst.weights, edges)]
    got = StencilLayout.of(shape).conflicts(starts, inst.weights)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert np.array_equal(Coloring(inst, starts).violations(), expected)


# Thin shapes (2×N, N×2, 2×2×N, 1×N, N×1×M) put every vertex in one or two
# blocks, or in none; 2×2 and 2×2×2 are one block.
bdp_grids = st.one_of(
    grids,
    st.tuples(st.just(2), st.integers(1, 9)),
    st.tuples(st.integers(1, 9), st.just(2)),
    st.tuples(st.just(2), st.just(2), st.integers(1, 6)),
    st.tuples(st.just(1), st.integers(1, 9)),
    st.tuples(st.integers(1, 4), st.just(1), st.integers(1, 4)),
    st.sampled_from([(2, 2), (2, 2, 2)]),
)


def _clique_first_oracle(inst, within):
    """Section V.A block by block: blocks by non-increasing weight sum
    (stable, summed from the block table), each block's still-uncolored
    vertices first-fit in ``within`` order, then the vertices in no block
    in id order."""
    geo = inst.geometry
    weights = inst.weights
    blocks = geo.blocks
    starts = np.full(inst.num_vertices, UNCOLORED, dtype=np.int64)

    def fit(v):
        colored = [
            int(u) for u in inst.graph.neighbors(v)
            if starts[u] != UNCOLORED and weights[u] > 0
        ]
        starts[v] = first_fit_start(
            [starts[u] for u in colored],
            [starts[u] + weights[u] for u in colored],
            int(weights[v]),
        )

    sums = weights[blocks].sum(axis=1)
    for b in np.argsort(-sums, kind="stable"):
        for v in sorted((int(v) for v in blocks[b] if starts[v] == UNCOLORED), key=within):
            fit(v)
    for v in range(inst.num_vertices):
        if starts[v] == UNCOLORED:
            fit(v)
    return starts


@given(
    shape=bdp_grids,
    seed=seeds,
    top=st.integers(0, 3),
    span=st.one_of(st.integers(1, 30), st.just(1 << 60)),
)
@settings(max_examples=80, deadline=None)
def test_bdp_order_kernel_matches_reference_loop(shape, seed, top, span):
    # Weights up to ``top`` make equal block sums common (all equal at 0);
    # a small ``span`` ties starts inside blocks (the stable tie-break) and
    # zero-weight cells sit at 0 as in a real coloring.  A ``span`` of
    # 2**60 overflows the one-key sort on all but the smallest grids.  The
    # clique order is keyed by zeros (GKF), -weights (SGK-ws, 3D SGK) and
    # starts (BDP); first fit in it is the block-by-block loop.
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, top + 1, size=shape)
    inst = _instance_of(weights)
    starts = rng.integers(0, span, size=inst.num_vertices)
    starts[(inst.weights == 0) & (rng.random(inst.num_vertices) < 0.5)] = 0
    sums = inst.geometry.block_weight_sums(inst.weights)
    for key in (np.zeros_like(starts), -inst.weights, starts):
        ref = clique_order(inst, key, fast=False)
        got = bdp_recolor_order_fast(shape, sums, key)
        assert got.dtype == ref.dtype == np.int64
        assert np.array_equal(got, ref)
        assert np.array_equal(clique_order(inst, key, fast=True), ref)
    by_id = _clique_first_oracle(inst, lambda v: v)
    by_weight = _clique_first_oracle(inst, lambda v: (-int(inst.weights[v]), v))
    for fast in (True, False):
        with use_context(ExecutionContext(RuntimeConfig(fast_paths=fast))):
            assert np.array_equal(greedy_largest_clique_first(inst).starts, by_id)
            assert np.array_equal(smart_greedy_weight_sorted(inst).starts, by_weight)
            if len(shape) == 3:
                sgk = smart_greedy_largest_clique_first(inst)
                assert np.array_equal(sgk.starts, by_weight)


@given(shape=bdp_grids, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_bdp_order_kernel_appends_blockless_vertices(shape, seed):
    # Block sums need not come from the weights: the order of any sums,
    # ties included, is the block scan's over the whole block table.  A
    # grid with an axis below 2 has no blocks, so every vertex is appended
    # in id order.
    rng = np.random.default_rng(seed)
    geo = _instance_of(np.ones(shape, dtype=np.int64)).geometry
    blocks = geo.blocks
    sums = rng.integers(0, 5, size=len(blocks))
    n = geo.num_vertices
    starts = rng.integers(0, 4, size=n)
    seen, expected = set(), []
    for b in np.argsort(-sums, kind="stable"):
        for v in blocks[b][np.argsort(starts[blocks[b]], kind="stable")].tolist():
            if v not in seen:
                seen.add(v)
                expected.append(v)
    expected += [v for v in range(n) if v not in seen]
    if min(shape) < 2:
        assert expected == list(range(n))
    assert bdp_recolor_order_fast(shape, sums, starts).tolist() == expected


@given(
    shape=bdp_grids,
    seed=seeds,
    dtype=st.sampled_from([np.int64, np.int32, np.bool_]),
)
@settings(max_examples=60, deadline=None)
@example(shape=(5, 4), seed=0, dtype=np.int64)
@example(shape=(1, 5), seed=0, dtype=np.int64)
@example(shape=(3, 4, 5), seed=0, dtype=np.int64)
@example(shape=(3, 1, 4), seed=0, dtype=np.int64)
def test_block_sums_from_slices_match_the_block_table(shape, seed, dtype):
    weights = np.random.default_rng(seed).integers(0, 1000, size=shape).astype(dtype)
    geo = _instance_of(np.ones(shape, dtype=np.int64)).geometry
    blocks = geo.blocks
    # The layout bdp_recolor_order_fast relies on: one row per block, its
    # corners in np.ndindex order, so the ids increase strictly.
    corners = list(np.ndindex(*(2,) * len(shape)))
    assert blocks.shape == (int(np.prod([d - 1 for d in shape])), len(corners))
    for row, lowest in zip(blocks, np.ndindex(*(d - 1 for d in shape))):
        want_row = [geo.vertex_id(*np.add(lowest, c)) for c in corners]
        assert row.tolist() == want_row
        assert (np.diff(row) > 0).all()
    got = geo.block_weight_sums(weights.ravel())
    want = weights.ravel()[blocks].sum(axis=1)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _naive_best_permutation_fill(instance, starts, block):
    """Pre-optimization SGK block fill: full snapshot rebuilt per permutation."""
    weights = instance.weights
    graph = instance.graph
    uncolored = [int(v) for v in block if starts[v] == UNCOLORED]
    if not uncolored:
        return
    best = None
    best_score = None
    for perm in permutations(uncolored):
        trial = starts.copy()
        for v in perm:
            ns, ne = [], []
            for u in graph.neighbors(v):
                u = int(u)
                s = int(trial[u])
                if s != UNCOLORED and weights[u] > 0:
                    ns.append(s)
                    ne.append(s + int(weights[u]))
            trial[v] = first_fit_start(ns, ne, int(weights[v]))
        top = int((trial[block] + weights[block]).max())
        if best_score is None or top < best_score:
            best_score = top
            best = trial
    starts[:] = best


@given(shape=st.tuples(st.integers(2, 5), st.integers(2, 5)), seed=seeds)
@settings(max_examples=15, deadline=None)
def test_best_permutation_fill_matches_naive_reference(shape, seed):
    inst = _instance(shape, seed)
    starts_opt = np.full(inst.num_vertices, UNCOLORED, dtype=np.int64)
    starts_naive = starts_opt.copy()
    for block in _sorted_blocks(inst):
        _best_permutation_fill(inst, starts_opt, block)
        _naive_best_permutation_fill(inst, starts_naive, block)
        assert np.array_equal(starts_opt, starts_naive)
