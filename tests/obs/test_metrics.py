"""The hoisted metrics layer, exercised outside the service.

Covers what the service tests cannot: snapshot-state merging across
registries (the engine's cross-process path), thread-safety under
contention, substrate-cache counters landing in a context-local registry,
and worker snapshots surfacing on ``GridResult.metrics`` with ``jobs=2``.
"""

import threading

import numpy as np
import pytest

from repro.obs import Histogram, MetricsRegistry, merge_snapshots


class TestHistogramState:
    def test_state_carries_buckets_and_bounds(self):
        h = Histogram()
        for v in (0.001, 0.01, 0.1):
            h.observe(v)
        state = h.state()
        assert state["count"] == 3
        assert sum(state["buckets"]) == 3
        assert len(state["buckets"]) == len(state["bounds"]) + 1

    def test_merge_state_sums_buckets_and_extremes(self):
        a, b = Histogram(), Histogram()
        for v in (0.001, 0.002):
            a.observe(v)
        for v in (0.5, 1.5):
            b.observe(v)
        a.merge_state(b.state())
        assert a.count == 4
        assert a.min == 0.001
        assert a.max == 1.5
        assert a.mean == pytest.approx((0.001 + 0.002 + 0.5 + 1.5) / 4)
        # percentiles come from the summed buckets, clamped to the true max
        assert a.percentile(99) <= 1.5

    def test_merge_rejects_incompatible_buckets(self):
        a = Histogram()
        with pytest.raises(ValueError, match="incompatible"):
            a.merge_state({"buckets": [1, 2, 3], "count": 3})

    def test_merging_empty_state_changes_nothing(self):
        a = Histogram()
        a.observe(0.25)
        empty = Histogram()
        a.merge_state(empty.state())
        assert a.count == 1
        assert a.min == 0.25


class TestMergeSnapshots:
    def _registry(self, ok, depth, latencies):
        reg = MetricsRegistry()
        reg.counter("cells_ok").inc(ok)
        reg.gauge("queue_depth").set(depth)
        for v in latencies:
            reg.histogram("cell_seconds").observe(v)
        return reg

    def test_counters_add_gauges_max_histograms_merge(self):
        snaps = [
            self._registry(3, 5.0, [0.01, 0.02]).snapshot(include_state=True),
            self._registry(4, 2.0, [0.03]).snapshot(include_state=True),
        ]
        merged = merge_snapshots(snaps)
        assert merged["counters"]["cells_ok"] == 7
        assert merged["gauges"]["queue_depth"] == 5.0
        hist = merged["histograms"]["cell_seconds"]
        assert hist["count"] == 3
        assert hist["min"] == pytest.approx(0.01)
        assert hist["max"] == pytest.approx(0.03)

    def test_empty_iterable_yields_empty_snapshot(self):
        merged = merge_snapshots([])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_summary_only_snapshot_raises(self):
        reg = self._registry(1, 0.0, [0.01])
        with pytest.raises(ValueError):
            merge_snapshots([reg.snapshot()])  # include_state=False

    def test_merge_is_order_insensitive_for_counters_and_buckets(self):
        a = self._registry(2, 1.0, [0.001, 1.0]).snapshot(include_state=True)
        b = self._registry(5, 3.0, [0.1]).snapshot(include_state=True)
        ab, ba = merge_snapshots([a, b]), merge_snapshots([b, a])
        assert ab["counters"] == ba["counters"]
        assert ab["histograms"]["cell_seconds"] == ba["histograms"]["cell_seconds"]


class TestThreadSafety:
    def test_contended_counter_and_histogram(self):
        reg = MetricsRegistry()
        threads = []

        def work():
            c = reg.counter("hits")
            h = reg.histogram("lat")
            for _ in range(1000):
                c.inc()
                h.observe(0.001)

        for _ in range(8):
            threads.append(threading.Thread(target=work))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hits").value == 8000
        assert reg.histogram("lat").count == 8000

    def test_concurrent_named_access_yields_one_instance(self):
        reg = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            seen.append(reg.counter("shared"))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is seen[0] for c in seen)


class TestSubstrateCounters:
    """Kernel substrate-cache events land in the owning context's registry."""

    def test_geometry_cache_hit_miss_counters(self):
        from repro.kernels.substrate import shared_geometry_2d
        from repro.runtime.context import ExecutionContext

        ctx = ExecutionContext()
        shared_geometry_2d(6, 7, context=ctx)   # miss: builds
        shared_geometry_2d(6, 7, context=ctx)   # hit
        shared_geometry_2d(8, 8, context=ctx)   # miss
        counters = ctx.metrics.snapshot()["counters"]
        assert counters["substrate.geometries.misses"] == 2
        assert counters["substrate.geometries.hits"] == 1

    def test_contexts_do_not_share_counters(self):
        from repro.kernels.substrate import shared_geometry_2d
        from repro.runtime.context import ExecutionContext

        a, b = ExecutionContext(), ExecutionContext()
        shared_geometry_2d(5, 5, context=a)
        counters_b = b.metrics.snapshot()["counters"]
        assert "substrate.geometries.misses" not in counters_b

    def test_kernel_coloring_emits_into_context_registry(self):
        from repro.core.algorithms.registry import color_with
        from repro.core.problem import IVCInstance
        from repro.runtime.context import ExecutionContext

        weights = np.random.default_rng(0).integers(1, 50, (8, 9), dtype=np.int64)
        instance = IVCInstance.from_grid_2d(weights)
        ctx = ExecutionContext()
        color_with(instance, "GLL", fast=True, context=ctx)
        snap = ctx.metrics.snapshot()
        assert snap["counters"]["registry.dispatch"] == 1
        assert snap["counters"]["registry.dispatch_fast"] == 1
        assert any(k.startswith("substrate.") for k in snap["counters"])
        assert snap["histograms"]["registry.color_seconds"]["count"] == 1

    @pytest.mark.parametrize(
        "side,algorithm,fast,counted",
        [
            (128, "GLL", None, "registry.dispatch_fast"),
            (2, "GLL", None, "registry.dispatch_reference"),
            # GKF has no kernel: a kernel request still runs the reference.
            (12, "GKF", True, "registry.dispatch_reference"),
        ],
    )
    def test_dispatch_counter_names_the_path_that_ran(
        self, side, algorithm, fast, counted
    ):
        from repro.core.algorithms.registry import color_with
        from repro.core.problem import IVCInstance
        from repro.runtime.context import ExecutionContext

        weights = np.random.default_rng(0).integers(
            1, 50, (side, side), dtype=np.int64
        )
        ctx = ExecutionContext()  # default config: auto from GLL's kernel_from
        color_with(IVCInstance.from_grid_2d(weights), algorithm, fast=fast,
                   context=ctx)
        counters = ctx.metrics.snapshot()["counters"]
        assert counters[counted] == 1
        assert counters["registry.dispatch"] == 1


class TestEngineWorkerMerge:
    """Worker registries surface, merged, on GridResult.metrics."""

    def _instances(self):
        from repro.core.problem import IVCInstance

        rng = np.random.default_rng(1)
        return [
            IVCInstance.from_grid_2d(
                rng.integers(1, 50, (6, 6 + i), dtype=np.int64)
            )
            for i in range(3)
        ]

    def test_serial_run_collects_metrics(self):
        from repro.engine import run_grid
        from repro.runtime.context import ExecutionContext

        ctx = ExecutionContext()
        records = run_grid(self._instances(), ["GLL", "BD"], jobs=1, context=ctx)
        assert records.metrics is not None
        assert records.metrics["counters"]["engine.cells_ok"] == 6
        assert records.metrics["histograms"]["engine.cell_seconds"]["count"] == 6

    def test_parallel_workers_merge_to_grid_total(self):
        from repro.engine import run_grid
        from repro.runtime.context import ExecutionContext

        instances = self._instances()
        records = run_grid(
            instances, ["GLL", "BD"], jobs=2, context=ExecutionContext()
        )
        assert records.metrics is not None
        counters = records.metrics["counters"]
        # every cell ran in exactly one worker; the merged snapshot must
        # account for the full grid regardless of how chunks were split
        assert counters["engine.cells_ok"] == len(instances) * 2
        assert counters["registry.dispatch"] == len(instances) * 2
        hist = records.metrics["histograms"]["engine.cell_seconds"]
        assert hist["count"] == len(instances) * 2
        assert hist["max"] >= hist["min"] >= 0.0
