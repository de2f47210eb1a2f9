"""Load generator for the coloring service (``stencil-ivc loadgen``).

Builds a *repeated-shape* workload — a small pool of distinct weight grids
over a handful of shapes, sampled with replacement — and fires it at a
server over ``concurrency`` parallel connections.  That is the serving
pattern the paper's interactive STKDE application produces: analysts re-bin
the same few grid geometries over and over, so shapes (and often whole
requests) repeat and the server's substrate sharing, coalescing, and
result cache all engage.

With ``verify=True`` every served start vector is compared bit-for-bit
against a direct in-process :func:`~repro.core.algorithms.registry.color_with`
call on the same weights — the served-vs-direct equivalence check the CI
smoke job enforces.  ``overloaded`` responses are retried with a short
backoff (counted), exercising the admission control path without losing
requests.

Resilience: each worker's :class:`~repro.service.client.AsyncServiceClient`
carries a :class:`~repro.resilience.retry.RetryPolicy` (``retry=``), so
dropped connections — real or injected via a
:class:`~repro.resilience.faults.FaultPlan` — are transparently reconnected
and re-sent; ``connection_retries`` counts the budget spent and
``connection_failures`` counts requests lost after the budget was exhausted
(zero in a passing chaos run).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.resilience.faults import active_plan
from repro.resilience.retry import RetryPolicy
from repro.service.client import (
    AsyncServiceClient,
    ColorResponse,
    ServiceConnectionError,
    prepare_color_request,
)


@dataclass(frozen=True)
class WorkItem:
    """One request template of the workload pool."""

    weights: np.ndarray
    algorithm: str
    label: str


@dataclass
class LoadgenReport:
    """Aggregated outcome of one load-generation run."""

    requests: int = 0
    ok: int = 0
    cached: int = 0
    computed: int = 0
    overloaded_retries: int = 0
    connection_retries: int = 0
    connection_failures: int = 0
    timeouts: int = 0
    errors: int = 0
    divergences: int = 0
    duration_seconds: float = 0.0
    throughput_rps: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_mean_ms: float = 0.0
    concurrency: int = 0
    verify: bool = False
    zipf: float = 0.0  # popularity skew of the request schedule (0 = uniform)
    pipeline: int = 1  # frames in flight per connection before the first read
    workers_seen: dict = field(default_factory=dict)  # worker_id -> responses
    error_samples: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    faults_fired: dict = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        return self.cached / self.ok if self.ok else 0.0

    def to_json(self) -> dict:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "cached": self.cached,
            "computed": self.computed,
            "cache_hit_rate": self.cache_hit_rate,
            "overloaded_retries": self.overloaded_retries,
            "connection_retries": self.connection_retries,
            "connection_failures": self.connection_failures,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "divergences": self.divergences,
            "duration_seconds": self.duration_seconds,
            "throughput_rps": self.throughput_rps,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_mean_ms": self.latency_mean_ms,
            "concurrency": self.concurrency,
            "verify": self.verify,
            "zipf": self.zipf,
            "pipeline": self.pipeline,
            "workers_seen": dict(self.workers_seen),
            "error_samples": self.error_samples[:5],
            "faults_fired": dict(self.faults_fired),
        }


def parse_shapes(text: str) -> list[tuple[int, ...]]:
    """``"32x32,16x16x8"`` → ``[(32, 32), (16, 16, 8)]``."""
    shapes = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        dims = tuple(int(d) for d in part.lower().split("x"))
        if len(dims) not in (2, 3) or any(d <= 0 for d in dims):
            raise ValueError(f"bad shape {part!r}: need 2 or 3 positive dims")
        shapes.append(dims)
    if not shapes:
        raise ValueError("no shapes given")
    return shapes


def build_workload(
    shapes: Sequence[tuple[int, ...]],
    *,
    distinct: int = 8,
    algorithm: str = "BDP",
    max_weight: int = 100,
    seed: int = 0,
) -> list[WorkItem]:
    """A pool of ``distinct`` weight grids cycled over ``shapes``."""
    rng = np.random.default_rng(seed)
    pool = []
    for idx in range(distinct):
        shape = shapes[idx % len(shapes)]
        weights = rng.integers(1, max_weight + 1, size=shape, dtype=np.int64)
        label = "x".join(str(s) for s in shape)
        pool.append(WorkItem(weights=weights, algorithm=algorithm, label=f"{label}#{idx}"))
    return pool


def _direct_starts(item: WorkItem) -> np.ndarray:
    """The ground-truth coloring for verification, computed in-process."""
    from repro.core.algorithms.registry import color_with
    from repro.core.problem import IVCInstance

    coloring = color_with(IVCInstance.from_grid(item.weights), item.algorithm)
    return np.asarray(coloring.starts, dtype=np.int64).reshape(item.weights.shape)


async def run_loadgen_async(
    host: str,
    port: int,
    workload: Sequence[WorkItem],
    *,
    requests: int = 200,
    concurrency: int = 8,
    verify: bool = False,
    request_timeout: Optional[float] = None,
    max_retries: int = 50,
    seed: int = 0,
    fetch_metrics: bool = True,
    retry: Optional[RetryPolicy] = None,
    zipf: float = 0.0,
    pipeline: int = 1,
) -> LoadgenReport:
    """Fire ``requests`` sampled requests at the server; aggregate outcomes.

    ``retry`` arms each worker's client with transparent
    reconnect-and-retry for transport failures (see the module docstring);
    ``None`` leaves connections brittle, the pre-resilience behaviour.

    ``zipf > 0`` skews the schedule: pool item at rank ``r`` (insertion
    order) is drawn with probability proportional to ``1 / r**zipf``, the
    classic popularity curve of repeated interactive queries.  ``zipf=0``
    keeps the historical uniform draw.  Both are deterministic in ``seed``.

    ``pipeline > 1`` keeps that many requests in flight per connection
    (wrk-style): each worker writes a burst of frames before reading the
    burst's ordered responses, measuring server capacity rather than
    per-round-trip latency.  Overloaded responses inside a burst are
    retried individually.
    """
    rng = random.Random(seed)
    if zipf and zipf > 0:
        ranks = [1.0 / ((i + 1) ** zipf) for i in range(len(workload))]
        schedule = rng.choices(list(workload), weights=ranks, k=requests)
    else:
        schedule = [workload[rng.randrange(len(workload))] for _ in range(requests)]
    truth: dict[int, np.ndarray] = {}
    if verify:
        for item in workload:
            truth[id(item)] = _direct_starts(item)
    # Encode each pool item once (the workload repeats them): loadgen then
    # measures the server, not the client's per-send serialization.
    prepared = {
        id(item): prepare_color_request(
            item.weights, item.algorithm,
            timeout=request_timeout, request_id=item.label,
        )
        for item in workload
    }

    next_index = 0
    pipeline = max(1, int(pipeline))
    latencies: list[float] = []
    report = LoadgenReport(
        concurrency=concurrency, verify=verify,
        zipf=float(zipf or 0.0), pipeline=pipeline,
    )

    def record_lost(count: int, label: str, exc: Exception) -> None:
        # The client's retry budget is spent — the request is lost.
        # Count it; a passing chaos run has zero of these.
        report.requests += count
        report.errors += count
        report.connection_failures += count
        if len(report.error_samples) < 5:
            report.error_samples.append(f"{label}: [connection] {exc}")

    def record(item: WorkItem, response: ColorResponse) -> None:
        report.requests += 1
        latencies.append(response.latency)
        if response.ok:
            report.ok += 1
            if response.worker:
                report.workers_seen[response.worker] = (
                    report.workers_seen.get(response.worker, 0) + 1
                )
            if response.cached:
                report.cached += 1
            else:
                report.computed += 1
            if verify and not np.array_equal(response.starts, truth[id(item)]):
                report.divergences += 1
        elif response.status == "timeout":
            report.timeouts += 1
        else:
            report.errors += 1
            if response.error and len(report.error_samples) < 5:
                report.error_samples.append(
                    f"{item.label}: [{response.status}] {response.error}"
                )

    async def send_one(
        client: AsyncServiceClient, item: WorkItem
    ) -> ColorResponse:
        """One request, retrying ``overloaded`` rejections with backoff."""
        response: Optional[ColorResponse] = None
        for attempt in range(max_retries + 1):
            response = await client.color_prepared(prepared[id(item)])
            if response.status != "overloaded":
                break
            report.overloaded_retries += 1
            await asyncio.sleep(0.002 * (attempt + 1))
        assert response is not None
        return response

    async def worker(worker_index: int) -> None:
        nonlocal next_index
        client = AsyncServiceClient(
            host,
            port,
            timeout=request_timeout or 120.0,
            retry=retry,
            retry_seed=seed * 1009 + worker_index,
        )
        try:
            while True:
                if next_index >= len(schedule):
                    return
                burst = schedule[next_index : next_index + pipeline]
                next_index += len(burst)
                if len(burst) > 1:
                    try:
                        responses = await client.color_pipelined(
                            [prepared[id(item)] for item in burst]
                        )
                    except ServiceConnectionError as exc:
                        record_lost(len(burst), burst[0].label, exc)
                        continue
                    for item, response in zip(burst, responses):
                        if response.status == "overloaded":
                            report.overloaded_retries += 1
                            try:
                                response = await send_one(client, item)
                            except ServiceConnectionError as exc:
                                record_lost(1, item.label, exc)
                                continue
                        record(item, response)
                    continue
                item = burst[0]
                try:
                    response = await send_one(client, item)
                except ServiceConnectionError as exc:
                    record_lost(1, item.label, exc)
                    continue
                record(item, response)
        finally:
            report.connection_retries += client.retries_used
            await client.close()

    t0 = time.perf_counter()
    await asyncio.gather(*(worker(i) for i in range(max(1, concurrency))))
    report.duration_seconds = time.perf_counter() - t0
    report.throughput_rps = (
        report.requests / report.duration_seconds if report.duration_seconds else 0.0
    )
    if latencies:
        ordered = sorted(latencies)
        report.latency_p50_ms = ordered[len(ordered) // 2] * 1000.0
        report.latency_p99_ms = ordered[
            min(len(ordered) - 1, int(len(ordered) * 0.99))
        ] * 1000.0
        report.latency_mean_ms = sum(ordered) / len(ordered) * 1000.0
    if fetch_metrics:
        client = AsyncServiceClient(host, port, retry=retry, retry_seed=seed)
        try:
            report.metrics = await client.metrics()
        finally:
            await client.close()
    plan = active_plan()
    if plan is not None:
        report.faults_fired = plan.fire_counts()
    return report


def run_loadgen(host: str, port: int, workload: Sequence[WorkItem], **kwargs) -> LoadgenReport:
    """Synchronous wrapper around :func:`run_loadgen_async`."""
    return asyncio.run(run_loadgen_async(host, port, workload, **kwargs))


def format_report(report: LoadgenReport) -> str:
    """Human-readable summary printed by ``stencil-ivc loadgen``."""
    lines = [
        f"requests   : {report.requests} over {report.concurrency} connections "
        f"in {report.duration_seconds:.2f}s",
        f"throughput : {report.throughput_rps:.1f} req/s",
        f"latency    : p50 {report.latency_p50_ms:.2f} ms, "
        f"p99 {report.latency_p99_ms:.2f} ms, mean {report.latency_mean_ms:.2f} ms",
        f"served     : {report.ok} ok ({report.cached} cached/coalesced, "
        f"{report.computed} computed; hit rate {report.cache_hit_rate * 100:.1f}%)",
        f"pressure   : {report.overloaded_retries} overload retries, "
        f"{report.timeouts} timeouts, {report.errors} errors",
        f"transport  : {report.connection_retries} connection retries, "
        f"{report.connection_failures} requests lost to dead connections",
        f"schedule   : zipf s={report.zipf:g}, pipeline depth {report.pipeline}",
    ]
    if report.workers_seen:
        spread = ", ".join(
            f"{wid}:{count}" for wid, count in sorted(report.workers_seen.items())
        )
        lines.append(f"workers    : {spread}")
    if report.faults_fired:
        fired = ", ".join(
            f"{site} x{count}" for site, count in sorted(report.faults_fired.items())
        )
        lines.append(f"chaos      : injected faults fired — {fired}")
    if report.verify:
        verdict = "bit-identical" if report.divergences == 0 else "DIVERGED"
        lines.append(
            f"verify     : {report.divergences} divergences vs direct color_with "
            f"({verdict})"
        )
    for sample in report.error_samples:
        lines.append(f"  error: {sample}")
    return "\n".join(lines)


# --------------------------------------------------------- delta streaming
@dataclass
class RecolorStreamReport:
    """Aggregated outcome of one delta-stream (``recolor``) run.

    The workload model is the sliding STKDE window: a few long-lived
    sessions, each receiving a causally ordered stream of sparse weight
    deltas.  Deltas are therefore sent sequentially round-robin across
    sessions — concurrency is a property of the *color* workload, not of a
    delta stream, where each update depends on the last.
    """

    sessions: int = 0
    deltas: int = 0
    delta_cells: int = 0
    ok: int = 0
    incremental: int = 0
    fallbacks: int = 0
    unknown_sessions: int = 0
    reseeds: int = 0  # client mirror re-seed attempts (last-resort recovery)
    recoveries: int = 0  # server-side journal replays (recovered: true)
    errors: int = 0
    divergences: int = 0
    seed_seconds: float = 0.0
    duration_seconds: float = 0.0
    deltas_per_second: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0
    cells_changed_total: int = 0
    cells_recomputed_total: int = 0
    algorithm: str = "GLF"
    shape: tuple = ()
    verify: bool = False
    error_samples: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "sessions": self.sessions,
            "deltas": self.deltas,
            "delta_cells": self.delta_cells,
            "ok": self.ok,
            "incremental": self.incremental,
            "fallbacks": self.fallbacks,
            "unknown_sessions": self.unknown_sessions,
            "reseeds": self.reseeds,
            "recoveries": self.recoveries,
            "errors": self.errors,
            "divergences": self.divergences,
            "seed_seconds": self.seed_seconds,
            "duration_seconds": self.duration_seconds,
            "deltas_per_second": self.deltas_per_second,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "cells_changed_total": self.cells_changed_total,
            "cells_recomputed_total": self.cells_recomputed_total,
            "algorithm": self.algorithm,
            "shape": list(self.shape),
            "verify": self.verify,
            "error_samples": self.error_samples[:5],
        }


def run_recolor_stream(
    host: str,
    port: int,
    *,
    shape: tuple[int, ...] = (128, 128),
    algorithm: str = "GLF",
    sessions: int = 2,
    deltas: int = 32,
    delta_cells: int = 4,
    max_weight: int = 100,
    seed: int = 0,
    verify: bool = True,
    retry: Optional[RetryPolicy] = None,
    fetch_metrics: bool = True,
) -> RecolorStreamReport:
    """Seed ``sessions`` grids, stream ``deltas`` sparse updates, verify.

    Each delta rewrites ``delta_cells`` uniformly random cells with fresh
    weights (absolute values — idempotent under retry).  With
    ``verify=True`` the client mirror of every session — weights *and*
    starts, as maintained from the server's changed-cells answers — is
    compared bit-for-bit against a direct in-process full recolor of the
    final weights: one check that covers seeding, every delta, splicing,
    and any mid-stream re-seed recoveries.
    """
    from repro.service.client import ServiceClient

    rng = np.random.default_rng(seed)
    report = RecolorStreamReport(
        sessions=sessions,
        deltas=deltas,
        delta_cells=delta_cells,
        algorithm=algorithm,
        shape=tuple(int(s) for s in shape),
        verify=verify,
    )
    n = int(np.prod(shape))
    latencies: list[float] = []
    client = ServiceClient(host, port, retry=retry, retry_seed=seed)
    client.connect()
    try:
        names = [f"loadgen-s{i}" for i in range(sessions)]
        t0 = time.perf_counter()
        for name in names:
            weights = rng.integers(
                1, max_weight + 1, size=shape, dtype=np.int64
            )
            response = client.recolor_open(name, weights, algorithm)
            if not response.ok:
                report.errors += 1
                report.error_samples.append(
                    f"{name} seed: {response.status}: {response.error}"
                )
        report.seed_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        for step in range(deltas):
            name = names[step % sessions]
            idx = rng.choice(n, size=min(delta_cells, n), replace=False)
            vals = rng.integers(1, max_weight + 1, size=idx.size)
            response = client.recolor_delta(
                name, idx, vals, request_id=f"{name}/d{step}"
            )
            if response.ok:
                report.ok += 1
                latencies.append(response.latency)
                if response.recovered:
                    report.recoveries += 1
                stats = response.recolor
                if stats.get("mode") == "incremental":
                    report.incremental += 1
                else:
                    report.fallbacks += 1
                report.cells_changed_total += int(
                    stats.get("cells_changed", 0)
                )
                report.cells_recomputed_total += int(
                    stats.get("cells_recomputed", 0)
                )
            else:
                if response.unknown_session:
                    report.unknown_sessions += 1
                report.errors += 1
                report.error_samples.append(
                    f"{name} delta {step}: {response.status}: {response.error}"
                )
        report.duration_seconds = time.perf_counter() - t0
        report.reseeds = client.reseeds_used
        if report.duration_seconds > 0:
            report.deltas_per_second = report.ok / report.duration_seconds
        if latencies:
            arr = np.asarray(latencies) * 1000.0
            report.latency_p50_ms = float(np.percentile(arr, 50))
            report.latency_p99_ms = float(np.percentile(arr, 99))

        if verify:
            from repro.incremental.engine import full_recolor

            for name in names:
                state = client.recolor_state(name)
                if state is None:
                    report.divergences += 1
                    continue
                weights, starts = state
                if not np.array_equal(
                    starts, full_recolor(weights, algorithm)
                ):
                    report.divergences += 1
        if fetch_metrics:
            try:
                snap = client.metrics()
                counters = snap.get("counters", {})
                report.metrics = {
                    "sessions": snap.get("sessions", {}),
                    "recolor": {
                        k: v
                        for k, v in counters.items()
                        if isinstance(k, str)
                        and k.startswith(
                            ("recolor_", "session_", "journal_", "checkpoint")
                        )
                    },
                }
            except Exception:
                pass
    finally:
        client.close()
    return report


def format_recolor_report(report: RecolorStreamReport) -> str:
    """Human-readable summary printed by ``stencil-ivc loadgen --recolor``."""
    lines = [
        f"sessions   : {report.sessions} x {report.shape} {report.algorithm}, "
        f"seeded in {report.seed_seconds:.2f}s",
        f"deltas     : {report.deltas} x {report.delta_cells} cells in "
        f"{report.duration_seconds:.2f}s ({report.deltas_per_second:.1f}/s)",
        f"latency    : p50 {report.latency_p50_ms:.2f} ms, "
        f"p99 {report.latency_p99_ms:.2f} ms",
        f"served     : {report.ok} ok ({report.incremental} incremental, "
        f"{report.fallbacks} fallback), {report.cells_changed_total} cells "
        f"changed, {report.cells_recomputed_total} recomputed",
        f"recovery   : {report.unknown_sessions} unknown-session answers, "
        f"{report.recoveries} server journal replays, "
        f"{report.reseeds} client reseed attempts, {report.errors} errors",
    ]
    if report.verify:
        verdict = "bit-identical" if report.divergences == 0 else "DIVERGED"
        lines.append(
            f"verify     : {report.divergences} divergences vs direct full "
            f"recolor ({verdict})"
        )
    for sample in report.error_samples:
        lines.append(f"  error: {sample}")
    return "\n".join(lines)
