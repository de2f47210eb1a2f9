"""Differential tests: the kernel passes vs the sequential reference loops.

Every test here compares ``fast=True`` against ``fast=False`` on the *same*
instance and order and requires bit-identical starts — the kernel contract
is exact replay of the reference scan, not merely an equally good coloring.
Degenerate grids (single row/column/vertex) and zero-weight vertices are
covered explicitly.
"""

import numpy as np
import pytest

from repro import api
from repro.core import greedy_engine
from repro.core.algorithms.registry import EXTENDED_ALGORITHMS, REGISTRY, color_with
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
from repro.kernels import native, wavefront
from repro.runtime.config import RuntimeConfig
from repro.runtime.context import ExecutionContext
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


def _line(n):
    """A 1 x n grid: an instance of exactly ``n`` vertices."""
    return IVCInstance.from_grid_2d(np.ones((1, n), dtype=np.int64))


def test_fast_paths_switch_roundtrip():
    # An explicit fast= beats the config, at every size, and leaves it be.
    off, on = ExecutionContext(RuntimeConfig(fast_paths=False)), ExecutionContext()
    spec = REGISTRY.get("GLL")
    for n in (1, 2, 7):
        line = _line(n)
        assert not spec.runs_kernel(line, context=off)
        assert spec.runs_kernel(line, True, context=off)
        assert spec.runs_kernel(line, context=on)
        assert not spec.runs_kernel(line, False, context=on)
        result = api.color(line.weight_grid(), "GLL", runtime=off)
        assert result.provenance["fast"] is False
    assert off.config.fast_paths is False


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
    "shape",
    [(1, 1), (1, 6), (6, 1), (7, 5), (1, 1, 5), (3, 1, 2), (4, 3, 3), (48, 48), (20, 20, 20)],
)
def test_kahn_schedule_pinned_to_reference(shape, order_name):
    # The GLF, GZO and random-order schedules must be exactly the reference
    # Kahn frontiers over geometry.csr: the batch count is a traced metric.
    # The two larger shapes reach rounds of 300-370 ready targets (GLF at
    # 48², random at 20³), a fifth of them repeats for the dedupe to drop.
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


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 7), (5, 6), (3, 4, 2), (48, 48), (10, 10, 10)]
)
def test_every_registry_algorithm_identical_with_fast_paths(shape):
    # The registry-level contract: color_with(fast=True) — fast_fn or not —
    # must reproduce the reference coloring for every registered algorithm,
    # the paper's seven and the extensions alike.
    inst = _instance(shape, seed=11)
    for name in EXTENDED_ALGORITHMS:
        ref = color_with(inst, name, fast=False)
        fast = color_with(inst, name, fast=True)
        assert np.array_equal(ref.starts, fast.starts), name


@pytest.mark.parametrize("algorithm", ["GLL", "GLF", "GZO", "BDP"])
@pytest.mark.parametrize("shape", [(48, 48), (10, 10, 10)])
def test_int64_body_identical_past_the_guard(shape, algorithm, monkeypatch):
    # Weights up to 2**40 put starts and ends far past 32 bits (a 26-cell
    # neighbourhood of such weights spans ~2**45), so the first-fit loop
    # must be int64 throughout, over the orders of real algorithms.
    rng = np.random.default_rng(len(shape) + len(algorithm))
    weights = rng.integers(1, 1 << 40, size=shape)
    weights[rng.random(size=shape) < 0.2] = 0
    inst = IVCInstance.from_grid(weights)
    dtypes = set()
    loop = native.first_fit

    def spy(starts, weights, cells, deltas):
        dtypes.add((starts.dtype, weights.dtype))
        return loop(starts, weights, cells, deltas)

    monkeypatch.setattr(native, "first_fit", spy)
    fast = color_with(inst, algorithm, fast=True)
    assert dtypes == {(np.dtype(np.int64), np.dtype(np.int64))}
    assert fast.maxcolor > 1 << 40
    assert np.array_equal(fast.starts, color_with(inst, algorithm, fast=False).starts)


@pytest.mark.parametrize("shape", [(12, 9), (5, 4, 6)])
def test_kernel_bdp_builds_no_block_table(shape):
    # The kernel BDP order reads block sums from shifted slices and ranks
    # from shifted windows; the block table is for the reference loops.
    weights = np.random.default_rng(sum(shape)).integers(1, 50, size=shape)
    ctx = ExecutionContext(RuntimeConfig(fast_paths=True))
    result = api.color(weights, "BDP", runtime=ctx)
    assert result.provenance["fast"]
    geometry = result.coloring.instance.geometry
    assert "blocks" not in geometry.__dict__
    inst = IVCInstance.from_grid(weights)
    assert np.array_equal(result.coloring.starts, color_with(inst, "BDP", fast=False).starts)


def test_generic_graph_falls_back_to_reference():
    # A geometry-less instance must silently take the reference loop.
    inst = IVCInstance.from_edges(
        4, [(0, 1), (1, 2), (2, 3), (3, 0)], [3, 1, 2, 4], name="cycle"
    )
    ref = greedy_color(inst, identity_order(4), fast=False)
    fast = greedy_color(inst, identity_order(4), fast=True)
    assert np.array_equal(ref.starts, fast.starts)
