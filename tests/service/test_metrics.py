"""Tests for the service metrics registry."""

import json

from repro.obs.metrics import Histogram, MetricsRegistry


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.percentile(50) == 0.0
        assert h.summary()["count"] == 0

    def test_percentiles_bracket_samples(self):
        h = Histogram()
        for ms in range(1, 101):  # 1..100 ms
            h.observe(ms / 1000.0)
        p50 = h.percentile(50)
        p99 = h.percentile(99)
        # Bucket resolution is 25%, so brackets are generous but ordered.
        assert 0.035 <= p50 <= 0.07
        assert 0.08 <= p99 <= 0.1  # clamped to the exact max
        assert p50 <= h.percentile(90) <= p99

    def test_max_clamps_percentile(self):
        h = Histogram()
        h.observe(0.005)
        assert h.percentile(99) == 0.005

    def test_mean_min_max(self):
        h = Histogram()
        h.observe(0.01)
        h.observe(0.03)
        summary = h.summary()
        assert summary["mean"] == (0.01 + 0.03) / 2
        assert summary["min"] == 0.01
        assert summary["max"] == 0.03


class TestRegistry:
    def test_lazily_created_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.counter("requests").inc()
        registry.gauge("depth").set(7)
        registry.histogram("latency").observe(0.002)
        snap = registry.snapshot()
        assert snap["counters"]["requests"] == 4
        assert snap["gauges"]["depth"] == 7
        assert snap["histograms"]["latency"]["count"] == 1

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.histogram("latency").observe(0.5)
        registry.counter("n").inc()
        json.dumps(registry.snapshot())

    def test_gauge_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("inflight")
        gauge.add(2)
        gauge.add(-1)
        assert gauge.value == 1
