"""Differential test: the four call paths produce bit-identical colorings.

One weight grid per dimensionality, every applicable registry algorithm,
four routes to a coloring:

1. **direct** — ``color_with(..., fast=False)``: the reference loops;
2. **kernels** — ``color_with(..., fast=True)``: vectorized fast paths
   (automatic fallback to reference where no kernel is registered), with
   every first-fit pass in the compiled loop of
   :mod:`repro.kernels.native` and again on its no-compiler Python scan;
3. **engine** — ``run_grid(..., jobs=2, capture_starts=True)``: the
   supervised process pool, workers rebuilding contexts from the shipped
   ``RuntimeConfig``;
4. **service** — a live :class:`ServerThread` over sockets, with
   the compute queue and caching in between.

All four must agree start-for-start.  This is the acceptance gate for the
``repro.runtime`` refactor: threading an ExecutionContext through every
layer must not perturb a single coloring.
"""

import numpy as np
import pytest

from repro.core.algorithms.registry import REGISTRY, color_with
from repro.core.problem import IVCInstance
from repro.engine import run_grid
from repro.kernels import native
from repro.runtime.context import ExecutionContext
from repro.service.client import ServiceClient
from repro.service.server import ServerConfig, ServerThread


def _weights_2d():
    return np.random.default_rng(7).integers(1, 60, size=(12, 13), dtype=np.int64)


def _weights_3d():
    return np.random.default_rng(8).integers(1, 60, size=(5, 6, 7), dtype=np.int64)


CASES = [
    pytest.param(_weights_2d(), IVCInstance.from_grid_2d, id="2d"),
    pytest.param(_weights_3d(), IVCInstance.from_grid_3d, id="3d"),
]


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(
        port=0, queue_limit=128, cache_size=64, default_timeout=30.0,
    )
    with ServerThread(config) as thread:
        yield thread


@pytest.fixture(scope="module")
def client(server):
    with ServiceClient("127.0.0.1", server.port, timeout=30.0) as c:
        yield c


@pytest.mark.parametrize("weights,from_grid", CASES)
def test_four_paths_bit_identical(weights, from_grid, client, monkeypatch):
    instance = from_grid(weights)
    names = REGISTRY.select(instance, include_extensions=True)
    assert len(names) >= 7  # the paper's seven at minimum

    # Path 1 + 2: direct reference and kernel fast path, fresh contexts so
    # nothing leaks between them through shared substrate caches.
    reference = {
        name: color_with(
            instance, name, fast=False, context=ExecutionContext()
        ).starts
        for name in names
    }
    for name in names:
        kernel = color_with(instance, name, fast=True, context=ExecutionContext())
        assert np.array_equal(kernel.starts, reference[name]), (
            f"kernel path ({native.path()} first fit) diverged for {name}"
        )
    with monkeypatch.context() as patch:
        patch.setattr(native, "_library", lambda: None)
        assert native.path() == "reference"
        for name in names:
            kernel = color_with(instance, name, fast=True, context=ExecutionContext())
            assert np.array_equal(kernel.starts, reference[name]), (
                f"kernel path (reference first fit) diverged for {name}"
            )

    # Path 3: the process-pool engine (workers rebuild their own contexts).
    records = run_grid(
        [instance], list(names), jobs=2, capture_starts=True,
        context=ExecutionContext(),
    )
    assert len(records) == len(names)
    for record in records:
        assert record.ok, (record.algorithm, record.error)
        assert record.starts is not None
        assert np.array_equal(np.asarray(record.starts), reference[record.algorithm]), (
            f"engine path diverged for {record.algorithm}"
        )

    # Path 4: the live service (batched, cached, over real sockets).
    for name in names:
        response = client.color(weights, name)
        assert response.ok, (name, response.error)
        assert np.array_equal(response.starts.ravel(), reference[name]), (
            f"service path diverged for {name}"
        )


@pytest.mark.parametrize("weights,from_grid", CASES)
def test_engine_serial_matches_parallel(weights, from_grid):
    """jobs=1 (in-process) and jobs=2 (pool) agree cell-for-cell."""
    instance = from_grid(weights)
    names = REGISTRY.select(instance, include_extensions=True)
    serial = run_grid(
        [instance], list(names), jobs=1, capture_starts=True,
        context=ExecutionContext(),
    )
    parallel = run_grid(
        [instance], list(names), jobs=2, capture_starts=True,
        context=ExecutionContext(),
    )
    by_alg = {r.algorithm: r for r in parallel}
    for record in serial:
        assert record.starts == by_alg[record.algorithm].starts, record.algorithm
        assert record.maxcolor == by_alg[record.algorithm].maxcolor
