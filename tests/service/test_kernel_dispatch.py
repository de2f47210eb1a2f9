"""A fresh small grid through the service runs the kernel, and a failed
compute attempt is answered ``error`` once, never retried on the reference
loops.

The paper's workloads are small grids; serve-mixed's fresh requests are
48^2 BDP.  The worker's ``color_with(fast=None)`` follows the runtime
config, which runs the kernels.
"""

import numpy as np
import pytest

from repro.core.algorithms.registry import REGISTRY, color_with
from repro.core.problem import IVCInstance
from repro.resilience import clear_plan, install_plan, parse_fault_spec
from repro.runtime.fingerprint import content_key
from repro.service.client import ServiceClient
from repro.service.server import ServerConfig, ServerThread

SHAPE = (48, 48)


@pytest.fixture(autouse=True)
def no_leftover_plan():
    clear_plan()
    yield
    clear_plan()


def _serve_once(weights):
    with ServerThread(ServerConfig(port=0, cache_size=0)) as thread:
        with ServiceClient("127.0.0.1", thread.port, timeout=30.0) as client:
            served = client.color(weights, "BDP")
            metrics = client.metrics()
    return served, metrics["counters"]


@pytest.fixture(scope="module")
def weights():
    return np.random.default_rng(48).integers(0, 50, size=SHAPE, dtype=np.int64)


@pytest.fixture(scope="module")
def reference(weights):
    return color_with(IVCInstance.from_grid_2d(weights), "BDP", fast=False)


def test_fresh_48x48_bdp_runs_the_kernel(weights, reference):
    assert REGISTRY.get("BDP").kernels
    served, counters = _serve_once(weights)
    assert served.ok and served.source == "computed"
    assert counters["registry.dispatch_fast"] == 1
    assert "registry.dispatch_reference" not in counters
    assert np.array_equal(served.starts.ravel(), reference.starts)
    assert served.maxcolor == reference.maxcolor


@pytest.mark.parametrize(
    "fast", [None, True, False], ids=["unpinned", "kernels", "reference"]
)
def test_compute_fault_answers_error_once(weights, reference, fast):
    install_plan(parse_fault_spec("service.compute:error=1.0,max=1"))
    with ServerThread(ServerConfig(port=0)) as thread:
        with ServiceClient("127.0.0.1", thread.port, timeout=30.0) as client:
            failed = client.color(weights, "BDP", fast=fast)
            counters = client.metrics()["counters"]
            uncached = thread.service.cache.peek(content_key(weights, "BDP"))
            again = client.color(weights, "BDP", fast=fast)
    assert failed.status == "error" and "InjectedFault" in failed.error
    assert counters["compute_errors"] == 1
    assert not any(name.startswith("registry.dispatch") for name in counters)
    assert uncached is None  # nothing cached: the next request computes
    assert again.ok and again.source == "computed"
    assert np.array_equal(again.starts.ravel(), reference.starts)
    assert again.maxcolor == reference.maxcolor
