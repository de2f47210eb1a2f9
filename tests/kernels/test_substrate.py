"""Substrate cache behavior: sharing, LRU bounds, and engine-pool safety."""

import numpy as np
import pytest

from repro.core.problem import IVCInstance
from repro.engine import run_grid
from repro.kernels.substrate import (
    StencilLayout,
    cache_sizes,
    clear_caches,
    get_substrate,
    shared_geometry,
    shared_geometry_2d,
    shared_geometry_3d,
    substrate_stats,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.context import ExecutionContext
from repro.stencil.grid import StencilGrid

#: Shapes per LRU under the default configuration (the contexts below are
#: built from it, so the ambient environment cannot move the bound).
CACHE_SIZE = RuntimeConfig().substrate_cache_size


def _weights(shape, seed=0):
    return np.random.default_rng(seed).integers(1, 50, size=shape)


def test_shared_geometry_is_one_object_per_shape():
    assert shared_geometry_2d(4, 5) is shared_geometry_2d(4, 5)
    assert shared_geometry_3d(2, 3, 4) is shared_geometry_3d(2, 3, 4)
    assert shared_geometry_2d(4, 5) is not shared_geometry_2d(5, 4)
    assert shared_geometry(4, 5) is shared_geometry_2d(4, 5)
    assert shared_geometry(2, 3, 4) is shared_geometry_3d(2, 3, 4)


def test_get_substrate_shared_across_equal_shapes():
    # Two *distinct* geometry objects of equal shape map to the same
    # substrate (and hence the same layout and schedule memory).
    a = get_substrate(StencilGrid(3, 6))
    b = get_substrate(StencilGrid(3, 6))
    assert a is b
    assert get_substrate(StencilGrid(2, 2, 3)) is get_substrate(StencilGrid(2, 2, 3))
    assert a is not get_substrate(StencilGrid(6, 3))


def test_from_grid_constructors_use_shared_geometry():
    w = _weights((4, 7))
    one = IVCInstance.from_grid_2d(w)
    two = IVCInstance.from_grid_2d(w * 2)
    assert one.geometry is two.geometry
    w3 = _weights((2, 3, 2))
    assert IVCInstance.from_grid_3d(w3).geometry is IVCInstance.from_grid_3d(w3).geometry


def test_caches_are_lru_bounded():
    ctx = ExecutionContext(RuntimeConfig())
    first = shared_geometry_2d(1, 1, context=ctx)
    for k in range(2, CACHE_SIZE + 3):  # evicts the (1, 1) entry
        shared_geometry_2d(1, k, context=ctx)
    sizes = cache_sizes(ctx)
    assert sizes["geometries"] <= CACHE_SIZE
    assert shared_geometry_2d(1, 1, context=ctx) is not first
    clear_caches(ctx)
    assert cache_sizes(ctx) == {"geometries": 0, "substrates": 0}


def test_substrate_stats_track_hits_misses_evictions():
    ctx = ExecutionContext(RuntimeConfig())
    before = substrate_stats(ctx)
    shared_geometry_2d(2, 9, context=ctx)  # cold: miss
    shared_geometry_2d(2, 9, context=ctx)  # warm: hit
    after = substrate_stats(ctx)
    assert after["geometries"]["misses"] == before["geometries"]["misses"] + 1
    assert after["geometries"]["hits"] == before["geometries"]["hits"] + 1
    assert after["geometries"]["size"] >= 1
    assert after["geometries"]["maxsize"] == CACHE_SIZE

    evicted_before = after["geometries"]["evictions"]
    for k in range(1, CACHE_SIZE + 2):  # overflow the cache by one
        shared_geometry_2d(3, k, context=ctx)
    assert substrate_stats(ctx)["geometries"]["evictions"] > evicted_before

    # Counters are process-lifetime monotonic: clearing drops entries only.
    clear_caches(ctx)
    cleared = substrate_stats(ctx)
    assert cleared["geometries"]["size"] == 0
    assert cleared["geometries"]["hits"] >= after["geometries"]["hits"]


def test_substrate_sizes_come_from_the_building_context():
    config = RuntimeConfig(wavefront_cache_size=3)
    substrate = get_substrate(StencilGrid(4, 4), context=ExecutionContext(config))
    assert substrate.wavefront_cache_size == 3


#: Every 1-wide shape class, plus small full shapes.
LAYOUT_SHAPES = [
    (1, 1), (1, 7), (7, 1), (3, 4), (5, 5),
    (1, 1, 1), (1, 1, 6), (1, 6, 1), (6, 1, 1), (2, 3, 2), (3, 3, 3),
]


def test_layout_neighbors_match_csr():
    # The layout's neighbour set of every cell, unpad[interior[v] + deltas]
    # minus the off-grid id n, is exactly its CSR row.
    for shape in LAYOUT_SHAPES:
        csr = StencilGrid(*shape).csr
        layout = StencilLayout.of(shape)
        n = csr.num_vertices
        assert len(layout.deltas) == (8 if len(shape) == 2 else 26)
        assert layout.padded == tuple(d + 2 for d in shape)
        for v in range(n):
            ids = layout.unpad[layout.interior[v] + layout.deltas]
            assert all(0 <= int(u) <= n for u in ids), (shape, v)
            real = sorted(int(u) for u in ids if u != n)
            assert real == sorted(int(u) for u in csr.neighbors(v)), (shape, v)
        # The walk's border mask: exactly the padded ids with no flat id.
        assert np.array_equal(layout.border, layout.unpad == n)
        assert not layout.border.flags.writeable


@pytest.mark.parametrize("shape", LAYOUT_SHAPES)
def test_layout_interior_and_unpad_are_inverse(shape):
    layout = StencilLayout.of(shape)
    n = int(np.prod(shape))
    assert np.array_equal(layout.unpad[layout.interior], np.arange(n))
    assert np.all(np.diff(layout.interior) > 0)  # padded ids sort like flat ids
    border = np.ones(len(layout.unpad), dtype=bool)
    border[layout.interior] = False
    assert np.all(layout.unpad[border] == n)
    # The substrate caches the same layout for its shape.
    cached = get_substrate(StencilGrid(*shape)).layout
    assert np.array_equal(cached.interior, layout.interior)
    assert np.array_equal(cached.deltas, layout.deltas)


def test_engine_pool_with_fast_paths_matches_serial_reference():
    # The cache is per-process (workers build their own lazily), so a pooled
    # fast-path run must reproduce the serial reference run cell for cell.
    instances = [
        IVCInstance.from_grid_2d(_weights((5, 6), seed=1), name="a"),
        IVCInstance.from_grid_2d(_weights((5, 6), seed=2), name="b"),
        IVCInstance.from_grid_3d(_weights((3, 3, 2), seed=3), name="c"),
    ]
    names = ["GLL", "GLF", "BD", "BDP"]
    ref = run_grid(instances, names, jobs=1, fast_paths=False, capture_starts=True)
    pooled = run_grid(instances, names, jobs=2, fast_paths=True, capture_starts=True)
    assert [r.status for r in pooled] == ["ok"] * len(ref)
    for r, p in zip(ref, pooled):
        assert (r.instance, r.algorithm) == (p.instance, p.algorithm)
        assert r.maxcolor == p.maxcolor
        assert r.starts == p.starts


@pytest.mark.parametrize("shape", LAYOUT_SHAPES)
def test_pad_and_inside_match_the_index_scatter_and_gather(shape):
    # ``pad`` writes and ``inside`` reads the interior through strided
    # views; both equal the fancy-index form over ``interior``.
    layout = StencilLayout.of(shape)
    n = int(np.prod(shape))
    values = np.random.default_rng(n).integers(-5, 2**40, size=n)
    for fill in (0, -1, 7):
        for given in (values, values.tolist(), 3, np.int64(-1)):
            want = np.full(len(layout.unpad), fill, dtype=np.int64)
            want[layout.interior] = given
            got = layout.pad(given, fill)
            assert got.dtype == np.int64 and np.array_equal(got, want)
        padded = layout.pad(values, fill)
        flat = layout.inside(padded).flatten()
        assert np.array_equal(flat, padded[layout.interior])
        assert not np.shares_memory(flat, padded)
        assert layout.inside(padded).shape == shape
