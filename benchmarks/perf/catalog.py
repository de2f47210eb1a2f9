"""The benchmark's vocabulary: workloads, metrics, units, directions, bounds.

``BENCHMARK.json`` at the repository root restates the workloads, the
end-to-end metrics and the per-layer metrics listed here;
``test_harness.py`` checks that the two agree.

Every end-to-end metric is reported by every workload, so each one is
defined so that it means the same thing everywhere: an *op* is one call
into a public entry point (``repro.api.color``, ``repro.tiling.color_tiled``)
or one request a service client sends and waits for.  Latencies too noisy
to gate on, metrics that exist on one workload only (the service's
per-verb latencies) and ``fail_ratio`` are printed and compared, but are
not in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Workload name -> why it is in the benchmark (one line each).
WORKLOADS: dict[str, str] = {
    "color-medium": (
        "api.color on 128^2-40^3 grids with GLL/GLF/GZO/BDP: per-call and "
        "per-batch overhead dominate; tiling, recolor and service stay idle"
    ),
    "color-large": (
        "api.color on 768^2 and 64^3 grids: large gathers, shape set-up and "
        "the GLF/BDP Kahn schedules dominate"
    ),
    "tiled-ooc": (
        "color_tiled of a synthetic 1024^2 grid into an out= memmap with 2 "
        "tile jobs: the only user of the seam band pass and region kernel"
    ),
    "serve-mixed": (
        "one worker, one client, one request at a time: an assumed mix (shapes "
        "and zipf from bench_service.py) of cached and fresh BDP color requests "
        "and journaled recolor deltas"
    ),
}


@dataclass(frozen=True)
class Metric:
    """One reported number: its unit, which direction is better, and (for
    end-to-end metrics) how far its median may worsen before a change
    counts as a regression, as a share of the parent's median."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: Optional[float] = None

    def worse_by(self, parent: float, change: float) -> float:
        """How much worse ``change`` is than ``parent``, as a share of it
        (negative when it is better)."""
        if parent == 0:
            return 0.0 if change == parent else float("inf")
        delta = (change - parent) / abs(parent)
        return delta if self.better == "lower" else -delta


def _metrics(*rows: tuple) -> dict[str, Metric]:
    return {row[0]: Metric(*row) for row in rows}


#: Reported by every workload with tracing off (``BENCHMARK.json``
#: ``end_to_end``).  A run of the benchmark is rejected when the spread of
#: one of these across ten seeds exceeds its bound, so each bound sits above
#: the widest spread measured on a shared 2-CPU host (``README.md``).
#: ``setup_s`` is the median of several set-ups per run; its bound is as
#: wide as any, so work moved out of the timed phase into set-up still shows.
END_TO_END = _metrics(
    ("setup_s", "s", "lower", 0.25),
    ("cells_per_s", "cells/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

#: Printed and compared, but not in ``BENCHMARK.json``: latencies whose
#: spread on a shared host exceeds any bound ``BENCHMARK.json`` allows
#: (they keep a bound of 0.10, and ``compare`` calls them unresolved when the
#: host is noisier than that), metrics defined on one workload only, and
#: ``fail_ratio`` (0 when all is well; the JSON summary line carries
#: ``failed`` and ``attempted`` instead).  Keyed by the workloads that report
#: them; ``None`` means all.
EXTRA: dict[Optional[str], dict[str, Metric]] = {
    None: _metrics(
        ("op_p50_ms", "ms", "lower", 0.10),
        ("op_p90_ms", "ms", "lower", 0.10),
        ("fail_ratio", "failed/attempted", "lower", 0.0),
    ),
    "serve-mixed": _metrics(
        ("requests_per_s", "1/s", "higher", 0.10),
        ("color_p50_ms", "ms", "lower", 0.10),
        ("color_p99_ms", "ms", "lower", 0.10),
        ("recolor_p50_ms", "ms", "lower", 0.10),
        ("recolor_p95_ms", "ms", "lower", 0.10),
    ),
}

#: Reported by every workload with tracing on (``BENCHMARK.json``
#: ``per_layer``).  A layer that is idle on a workload reports zero calls
#: and zero time there.  ``README.md`` maps each one to the end-to-end
#: metric it should move.
PER_LAYER = _metrics(
    ("api.calls", "count", "lower"),
    ("api.self_s", "s", "lower"),
    ("orderings.calls", "count", "lower"),
    ("orderings.s", "s", "lower"),
    ("substrate.calls", "count", "lower"),
    ("substrate.geometry_s", "s", "lower"),
    ("substrate.table_s", "s", "lower"),
    ("substrate.schedule_s", "s", "lower"),
    ("substrate.schedule_calls", "count", "lower"),
    ("substrate.cache_hit_ratio", "ratio", "higher"),
    ("substrate.setup_s", "s", "lower"),
    ("wavefront.calls", "count", "lower"),
    ("wavefront.first_fit_s", "s", "lower"),
    ("wavefront.batches", "count", "lower"),
    ("wavefront.cells_per_batch", "cells", "higher"),
    ("wavefront.ns_per_cell", "ns", "lower"),
    ("chains.calls", "count", "lower"),
    ("chains.bd_s", "s", "lower"),
    ("chains.bdp_order_s", "s", "lower"),
    ("halo.calls", "count", "lower"),
    ("halo.region_s", "s", "lower"),
    ("halo.region_cells", "cells", "lower"),
    ("tiling.calls", "count", "lower"),
    ("tiling.seam_s", "s", "lower"),
    ("tiling.seam_share", "ratio", "lower"),
    ("tiling.interior_s", "s", "lower"),
    ("tiling.tile_busy_s", "s", "lower"),
    ("tiling.interior_efficiency", "ratio", "higher"),
    ("tiling.cells_computed_per_cell", "ratio", "lower"),
    ("incremental.calls", "count", "lower"),
    ("incremental.cone_s", "s", "lower"),
    ("incremental.cone_aborted_s", "s", "lower"),
    ("incremental.fallback_s", "s", "lower"),
    ("incremental.fallback_ratio", "ratio", "lower"),
    ("incremental.cone_cells_per_delta", "cells", "lower"),
    ("service.requests", "count", "higher"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.fastpath_ratio", "ratio", "higher"),
    ("service.compute_p50_ms", "ms", "lower"),
    ("frames.calls", "count", "lower"),
    ("frames.codec_s", "s", "lower"),
    ("durability.calls", "count", "lower"),
    ("durability.journal_s", "s", "lower"),
    ("durability.checkpoint_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def comparable(workload: str) -> dict[str, Metric]:
    """Every metric with a bound that ``workload`` reports untraced."""
    return {**END_TO_END, **EXTRA[None], **EXTRA.get(workload, {})}
