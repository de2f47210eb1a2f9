"""Differential tests: wavefront kernels vs the sequential reference loops.

Every test here compares ``fast=True`` against ``fast=False`` on the *same*
instance and order and requires bit-identical starts — the kernel contract
is exact replay of the reference scan, not merely an equally good coloring.
Degenerate grids (single row/column/vertex) and zero-weight vertices are
covered explicitly.
"""

import numpy as np
import pytest

from repro.core import greedy_engine
from repro.core.algorithms.registry import ALGORITHMS, color_with
from repro.core.greedy_engine import greedy_color, greedy_recolor_pass
from repro.core.orderings import (
    identity_order,
    largest_first_order,
    line_by_line_order,
    random_order,
    smallest_last_order,
    zorder_order,
)
from repro.core.problem import IVCInstance
from repro.kernels import wavefront
from repro.kernels.config import fast_paths, fast_paths_enabled, set_fast_paths
from repro.kernels.substrate import get_substrate

SHAPES_2D = [(1, 1), (1, 5), (5, 1), (2, 2), (4, 7), (6, 6)]
SHAPES_3D = [(1, 1, 1), (3, 1, 2), (2, 2, 2), (3, 4, 2)]

ORDERINGS = {
    "identity": lambda inst: identity_order(inst.num_vertices),
    "line_by_line": line_by_line_order,
    "zorder": zorder_order,
    "largest_first": largest_first_order,
    "smallest_last": smallest_last_order,
    "random": lambda inst: random_order(inst, seed=7),
}


def _instance(shape, seed=0, zero_frac=0.25):
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 30, size=shape)
    weights[rng.random(size=shape) < zero_frac] = 0
    if len(shape) == 2:
        return IVCInstance.from_grid_2d(weights)
    return IVCInstance.from_grid_3d(weights)


def test_uncolored_sentinels_agree():
    # wavefront.py keeps its own literal to avoid an import cycle; the two
    # must never drift apart.
    assert wavefront.UNCOLORED == greedy_engine.UNCOLORED


def test_auto_mode_size_threshold():
    # Auto mode (fast=None) only engages kernels from MIN_AUTO_SIZE vertices
    # up; explicit True/False win unconditionally.
    from repro.kernels.config import MIN_AUTO_SIZE, resolve_fast_for

    prev = fast_paths_enabled()
    try:
        set_fast_paths(True)
        assert resolve_fast_for(None, MIN_AUTO_SIZE) is True
        assert resolve_fast_for(None, MIN_AUTO_SIZE - 1) is False
        assert resolve_fast_for(True, 1) is True
        assert resolve_fast_for(False, 10**9) is False
        set_fast_paths(False)
        assert resolve_fast_for(None, 10**9) is False
        assert resolve_fast_for(True, 1) is True
    finally:
        set_fast_paths(prev)


def test_fast_paths_switch_roundtrip():
    prev = fast_paths_enabled()
    try:
        set_fast_paths(False)
        assert not fast_paths_enabled()
        with fast_paths(True):
            assert fast_paths_enabled()
        assert not fast_paths_enabled()
    finally:
        set_fast_paths(prev)


@pytest.mark.parametrize("order_name", sorted(ORDERINGS))
@pytest.mark.parametrize("shape", SHAPES_2D + SHAPES_3D)
def test_greedy_kernel_identical_to_reference(shape, order_name):
    inst = _instance(shape, seed=len(shape) * 10 + 1)
    order = np.asarray(ORDERINGS[order_name](inst), dtype=np.int64)
    ref = greedy_color(inst, order, fast=False)
    fast = greedy_color(inst, order, fast=True)
    assert np.array_equal(ref.starts, fast.starts)
    assert fast.is_valid()


@pytest.mark.parametrize("shape", SHAPES_2D + SHAPES_3D)
def test_recolor_kernel_identical_to_reference(shape):
    inst = _instance(shape, seed=3)
    starts = greedy_color(inst, identity_order(inst.num_vertices), fast=False).starts
    order = np.random.default_rng(5).permutation(inst.num_vertices).astype(np.int64)
    ref = greedy_recolor_pass(inst, starts, order, fast=False)
    fast = greedy_recolor_pass(inst, starts, order, fast=True)
    assert np.array_equal(ref, fast)


def test_all_zero_weights_color_at_zero():
    inst = _instance((4, 4), zero_frac=1.1)  # every weight zeroed
    coloring = greedy_color(inst, identity_order(inst.num_vertices), fast=True)
    assert np.array_equal(coloring.starts, np.zeros(inst.num_vertices, dtype=np.int64))


def _assert_valid_wavefront(substrate, order):
    """Batches must be pairwise non-adjacent and respect the order's DAG."""
    verts, ptr = substrate.wavefront_for(order)
    n = substrate.num_vertices
    assert sorted(verts.tolist()) == list(range(n))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    batch_of = np.empty(n, dtype=np.int64)
    for b in range(len(ptr) - 1):
        batch_of[verts[ptr[b] : ptr[b + 1]]] = b
    csr = substrate.geometry.csr
    for v in range(n):
        for u in csr.neighbors(v):
            u = int(u)
            assert batch_of[u] != batch_of[v]
            if rank[u] < rank[v]:
                assert batch_of[u] < batch_of[v]
            else:
                assert batch_of[u] > batch_of[v]


@pytest.mark.parametrize("order_name", ["line_by_line", "largest_first", "random"])
@pytest.mark.parametrize("shape", [(4, 5), (1, 6), (3, 3, 2)])
def test_wavefront_batches_valid(shape, order_name):
    inst = _instance(shape, seed=2)
    substrate = get_substrate(inst.geometry)
    order = np.asarray(ORDERINGS[order_name](inst), dtype=np.int64)
    _assert_valid_wavefront(substrate, order)


def _reference_kahn(csr, order):
    """Kahn frontiers over the CSR graph, one vertex at a time.

    A vertex's batch is one past the latest batch of its earlier-order
    neighbours (the longest DAG path ending at it); each batch lists its
    vertices in increasing id order.
    """
    n = csr.num_vertices
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    batch_of = np.zeros(n, dtype=np.int64)
    for v in order:
        v = int(v)
        earlier = [int(batch_of[u]) + 1 for u in csr.neighbors(v) if rank[u] < rank[v]]
        batch_of[v] = max(earlier, default=0)
    verts = np.lexsort((np.arange(n), batch_of)).astype(np.int64)
    ptr = np.concatenate(([0], np.cumsum(np.bincount(batch_of)))).astype(np.int64)
    return verts, ptr


@pytest.mark.parametrize("order_name", ["largest_first", "zorder", "random"])
@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 6), (6, 1), (7, 5), (1, 1, 5), (3, 1, 2), (4, 3, 3)]
)
def test_kahn_schedule_pinned_to_reference(shape, order_name):
    # The GLF, GZO and random-order schedules must be exactly the reference
    # Kahn frontiers over geometry.csr: the batch count is a traced metric.
    inst = _instance(shape, seed=6)
    substrate = get_substrate(inst.geometry)
    order = np.asarray(ORDERINGS[order_name](inst), dtype=np.int64)
    verts, ptr = substrate.wavefront_for(order)
    ref_verts, ref_ptr = _reference_kahn(inst.geometry.csr, order)
    assert np.array_equal(verts, ref_verts)
    assert np.array_equal(ptr, ref_ptr)
    assert verts.dtype == ptr.dtype == np.int64


def test_wavefront_schedule_cached_per_order():
    inst = _instance((5, 5), seed=4)
    substrate = get_substrate(inst.geometry)
    order = np.asarray(line_by_line_order(inst), dtype=np.int64)
    first = substrate.wavefront_for(order)
    again = substrate.wavefront_for(order.copy())  # equal content, new array
    assert first[0] is again[0] and first[1] is again[1]


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 6), (3, 4, 2)])
def test_every_registry_algorithm_identical_with_fast_paths(shape):
    # The registry-level contract: color_with(fast=True) — fast_fn or not —
    # must reproduce the reference coloring for every registered algorithm.
    inst = _instance(shape, seed=11)
    for name in ALGORITHMS:
        ref = color_with(inst, name, fast=False)
        fast = color_with(inst, name, fast=True)
        assert np.array_equal(ref.starts, fast.starts), name


def test_generic_graph_falls_back_to_reference():
    # A geometry-less instance must silently take the reference loop.
    inst = IVCInstance.from_edges(
        4, [(0, 1), (1, 2), (2, 3), (3, 0)], [3, 1, 2, 4], name="cycle"
    )
    ref = greedy_color(inst, identity_order(4), fast=False)
    fast = greedy_color(inst, identity_order(4), fast=True)
    assert np.array_equal(ref.starts, fast.starts)
