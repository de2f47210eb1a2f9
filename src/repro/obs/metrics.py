"""Counters, gauges, and latency histograms (the repo's metrics layer).

A tiny, dependency-free metrics layer: named :class:`Counter`/:class:`Gauge`
values plus fixed-bucket log-scaled :class:`Histogram` objects, collected in
a thread-safe :class:`MetricsRegistry` whose :meth:`~MetricsRegistry.snapshot`
is a plain JSON-serializable dict — that is what the coloring server ships
over the wire for the ``metrics`` protocol op and what ``BENCH_service.json``
embeds.

The registry lives in ``repro.obs`` so the batch-engine workers and the
kernel substrate caches can emit counters without importing the service
package (which re-exports the primitives from :mod:`repro.service`).  Every
:class:`~repro.runtime.context.ExecutionContext` owns one registry.

Histograms use geometric bucket boundaries from 10 µs to ~100 s, so
percentile estimates (p50/p90/p99) are accurate to the bucket ratio (~25%)
across six orders of magnitude of latency, with exact ``min``/``max``
tracked on the side.

Cross-process merging
---------------------
Engine worker processes each hold their own registry; the parent folds the
workers' snapshots together with :func:`merge_snapshots`.  Counters add,
gauges keep the largest value (a queue depth summed across workers means
nothing), and histograms merge bucket-by-bucket — which requires the raw
bucket state, so workers snapshot with ``include_state=True``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable, Optional


def _default_bounds() -> list[float]:
    """Geometric bucket upper bounds in seconds: 10 µs … ~115 s."""
    bounds = []
    value = 1e-5
    while value < 130.0:
        bounds.append(value)
        value *= 1.25
    return bounds


_BOUNDS = _default_bounds()


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time numeric value (queue depth, in-flight batches)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed log-bucket histogram of non-negative samples (seconds).

    ``observe`` is O(log #buckets); ``percentile`` interpolates nothing —
    it returns the upper bound of the bucket containing the requested rank,
    clamped to the exact observed ``max``.
    """

    def __init__(self, bounds: Optional[list[float]] = None) -> None:
        self.bounds = list(bounds) if bounds is not None else _BOUNDS
        self._counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = max(0.0, float(value))
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self.count += 1
            self.total += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0–100) as a bucket upper bound, in seconds."""
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = max(1, int(round(p / 100.0 * self.count)))
            seen = 0
            for idx, count in enumerate(self._counts):
                seen += count
                if seen >= rank:
                    bound = (
                        self.bounds[idx] if idx < len(self.bounds) else self.max
                    )
                    return min(bound, self.max)
            return self.max  # pragma: no cover - unreachable

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        """count/mean/min/max plus p50/p90/p99, all in seconds."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def state(self) -> dict:
        """The mergeable raw state: summary plus bucket counts and bounds."""
        with self._lock:
            counts = list(self._counts)
        state = self.summary()
        state["buckets"] = counts
        state["bounds"] = list(self.bounds)
        return state

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`state` into this one.

        The other histogram must share this one's bucket bounds (all
        registries in this repo use the default bounds).
        """
        counts = state.get("buckets")
        if counts is None or len(counts) != len(self._counts):
            raise ValueError("histogram state has incompatible buckets")
        with self._lock:
            for idx, n in enumerate(counts):
                self._counts[idx] += int(n)
            self.count += int(state["count"])
            self.total += float(state["mean"]) * int(state["count"])
            if state["count"]:
                self.min = min(self.min, float(state["min"]))
                self.max = max(self.max, float(state["max"]))


class MetricsRegistry:
    """Named metrics, lazily created, snapshotted as one nested dict."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            return self._histograms.setdefault(name, Histogram())

    def snapshot(self, *, include_state: bool = False) -> dict:
        """All current values as a JSON-serializable nested dict.

        ``include_state=True`` adds raw bucket counts to every histogram so
        the snapshot can be folded into another with
        :func:`merge_snapshots` (engine workers ship these to the parent).
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "histograms": {
                name: (h.state() if include_state else h.summary())
                for name, h in sorted(histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold one ``include_state=True`` snapshot into this registry.

        Counters add; gauges keep the larger value; histograms merge
        bucket-by-bucket (snapshots without bucket state raise).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, float(value)))
        for name, state in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_state(state)


def merge_snapshots(snapshots: Iterable[dict], *, include_state: bool = False) -> dict:
    """Merge ``include_state=True`` snapshots into one snapshot.

    Used by the batch engine to fold per-worker registries into the
    :class:`~repro.engine.executor.GridResult` metrics: counters add, gauges
    keep the maximum, histogram percentiles are recomputed from the summed
    bucket counts.  With ``include_state=True`` the merged snapshot keeps
    raw histogram bucket state, so it can itself be merged again later —
    campaign harvests fold one such snapshot per run session
    (:mod:`repro.campaign.harvest`) into the artifact's combined metrics.
    """
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot(include_state=include_state)
