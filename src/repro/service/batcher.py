"""Shape-batched request dispatch: the service's micro-batching core.

Queued :class:`~repro.service.protocol.ColorRequest`\\ s are grouped by
``(grid shape, algorithm)``.  The dispatcher waits a short *batch window*
after work arrives so concurrent requests for the same group accumulate,
then takes up to ``max_batch`` of the oldest group and executes them as one
unit on a worker thread:

1. requests whose deadline already expired are answered ``timeout`` without
   touching the kernels;
2. identical requests (same content key) are *coalesced* — one computation
   fans out to all of them;
3. remaining unique keys probe the content-addressed result cache;
4. only true misses build an :class:`~repro.core.problem.IVCInstance` and run
   :func:`~repro.core.algorithms.registry.color_with` — and because every
   instance in the batch shares its shape, the per-shape substrate LRU
   (:mod:`repro.kernels.substrate`) means one padded
   :class:`~repro.kernels.substrate.StencilLayout` serves the entire batch.

Results are therefore bit-identical to a direct ``color_with`` call by
construction: the batcher never merges *computations*, only the shape-level
preprocessing and equal-content requests.

**One attempt.**  Each miss gets exactly one ``color_with`` call, on the
path the request chose.  A raise answers ``error`` (counted in
``compute_errors``) and caches nothing, so the next identical request
computes afresh; there is no retry on the reference loops.

**Shutdown.**  Requests still queued when the batcher stops are answered
``overloaded`` (a retry-later signal — a restarted server will serve them);
requests in flight when a drain deadline expires are answered ``timeout``.
Neither is ever silently dropped.

Concurrency: group selection runs on the event loop; batch execution runs in
a ``ThreadPoolExecutor`` bounded by ``compute_threads`` slots, so several
groups can compute in parallel while new requests keep queueing.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.resilience.faults import inject
from repro.runtime.context import ExecutionContext, get_context, use_context
from repro.service.cache import CacheEntry, ResultCache
from repro.service.protocol import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_TIMEOUT,
    ColorRequest,
    ServedResult,
)


@dataclass
class _Pending:
    """One queued request plus its resolution future and timing marks."""

    request: ColorRequest
    future: asyncio.Future
    enqueued_at: float
    deadline: Optional[float]


class MicroBatcher:
    """Groups queued requests by ``(shape, algorithm)`` and batch-executes.

    Parameters
    ----------
    cache:
        The content-addressed result cache (may have ``capacity=0``).
    metrics:
        Registry receiving queue/batch/compute observations.
    max_batch:
        Largest number of requests dispatched as one batch.
    batch_window:
        Seconds the dispatcher lingers after work arrives so a batch can
        fill; ``0`` dispatches immediately (the unbatched baseline).
    compute_threads:
        Worker threads executing batches (and the cap on in-flight batches).
    context:
        The :class:`~repro.runtime.context.ExecutionContext` the batcher
        computes under.  ``run_in_executor`` does not propagate the ambient
        contextvar onto compute threads, so each batch re-enters it
        explicitly — that is how batched colorings share the substrate
        caches and fast-path config with every other call path.  ``None``
        captures the ambient context at construction.
    """

    def __init__(
        self,
        cache: ResultCache,
        metrics: MetricsRegistry,
        *,
        max_batch: int = 32,
        batch_window: float = 0.002,
        compute_threads: int = 1,
        context: Optional[ExecutionContext] = None,
    ) -> None:
        self.cache = cache
        self.metrics = metrics
        self.context = context if context is not None else get_context()
        self.max_batch = max(1, int(max_batch))
        self.batch_window = max(0.0, float(batch_window))
        self.compute_threads = max(1, int(compute_threads))
        self._groups: "OrderedDict[tuple, deque[_Pending]]" = OrderedDict()
        self._seq = 0
        self._depth = 0
        self._inflight = 0
        self._closed = False
        self._wake: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._tasks: set[asyncio.Task] = set()
        self._inflight_pendings: set[int] = set()
        self._pendings_by_id: dict[int, _Pending] = {}

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._slots = asyncio.Semaphore(self.compute_threads)
        self._executor = ThreadPoolExecutor(
            max_workers=self.compute_threads, thread_name_prefix="color-batch"
        )
        self._dispatcher = asyncio.create_task(self._run(), name="micro-batcher")

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every queued and in-flight request has resolved."""
        assert self._idle is not None
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop dispatching; optionally drain queued work first.

        A drain deadline expiring with work still outstanding never hangs
        the stop: queued requests are answered ``overloaded``, in-flight
        requests ``timeout``, and the executor is released without waiting
        for a wedged compute thread.
        """
        self._closed = True
        drained = await self.drain(timeout) if drain else self._idle.is_set()
        if self._dispatcher is not None:
            self._wake.set()
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        self._fail_all("service shutting down", status=STATUS_OVERLOADED)
        self._timeout_inflight("drain deadline expired during shutdown")
        if self._executor is not None:
            # Only wait for compute threads after a clean drain; a wedged
            # batch must not turn stop() into a hang.
            self._executor.shutdown(wait=drained, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------- admission
    @property
    def depth(self) -> int:
        """Requests queued but not yet dispatched (backpressure signal)."""
        return self._depth

    def submit(self, request: ColorRequest) -> asyncio.Future:
        """Enqueue a request; resolves to a :class:`ServedResult`.

        The caller (the server) enforces the admission limit *before*
        calling; ``submit`` itself never rejects.
        """
        if self._closed:
            raise RuntimeError("batcher is stopped")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        now = time.monotonic()
        pending = _Pending(
            request=request,
            future=future,
            enqueued_at=now,
            deadline=now + request.timeout if request.timeout else None,
        )
        self._groups.setdefault(request.group, deque()).append(pending)
        self._depth += 1
        self.metrics.gauge("queue_depth").set(self._depth)
        self._idle.clear()
        self._wake.set()
        return future

    # ------------------------------------------------------------- dispatcher
    async def _run(self) -> None:
        assert self._wake is not None and self._slots is not None
        loop = asyncio.get_running_loop()
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self.batch_window > 0 and self._depth > 0:
                await asyncio.sleep(self.batch_window)
            while self._depth > 0:
                await self._slots.acquire()
                batch = self._take_batch()
                if not batch:
                    self._slots.release()
                    break
                self._inflight += 1
                self.metrics.gauge("inflight_batches").set(self._inflight)
                task = loop.create_task(self._dispatch(batch))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)

    def _take_batch(self) -> list[_Pending]:
        """Up to ``max_batch`` requests of the group with the oldest head."""
        best_key = None
        best_age = float("inf")
        for key, queue in self._groups.items():
            if queue and queue[0].enqueued_at < best_age:
                best_age = queue[0].enqueued_at
                best_key = key
        if best_key is None:
            return []
        queue = self._groups[best_key]
        batch = []
        while queue and len(batch) < self.max_batch:
            batch.append(queue.popleft())
        if not queue:
            del self._groups[best_key]
        self._depth -= len(batch)
        self.metrics.gauge("queue_depth").set(self._depth)
        for pending in batch:
            self._inflight_pendings.add(id(pending))
            self._pendings_by_id[id(pending)] = pending
        return batch

    async def _dispatch(self, batch: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._executor, self._execute_batch, batch
            )
        except Exception as exc:  # worker infrastructure failure
            outcomes = [
                ServedResult(status=STATUS_ERROR, error=f"{type(exc).__name__}: {exc}")
                for _ in batch
            ]
        finally:
            self._slots.release()
            self._inflight -= 1
            self.metrics.gauge("inflight_batches").set(self._inflight)
            if self._depth == 0 and self._inflight == 0:
                self._idle.set()
        for pending, outcome in zip(batch, outcomes):
            self._inflight_pendings.discard(id(pending))
            self._pendings_by_id.pop(id(pending), None)
            if not pending.future.done():
                pending.future.set_result(outcome)

    def _fail_all(self, reason: str, status: str = STATUS_ERROR) -> None:
        """Answer every still-queued request with ``status`` (never drop)."""
        for queue in self._groups.values():
            for pending in queue:
                if not pending.future.done():
                    pending.future.set_result(
                        ServedResult(status=status, error=reason)
                    )
        self._groups.clear()
        self._depth = 0

    def _timeout_inflight(self, reason: str) -> None:
        """Answer requests whose batch is still computing with ``timeout``.

        Used when a drain deadline expires at shutdown: the computation may
        finish later (its ``set_result`` is guarded by ``future.done()``),
        but the waiting client gets a definitive answer now.
        """
        for pending_id in list(self._inflight_pendings):
            pending = self._pendings_by_id.get(pending_id)
            if pending is not None and not pending.future.done():
                self.metrics.counter("request_timeouts").inc()
                pending.future.set_result(
                    ServedResult(status=STATUS_TIMEOUT, error=reason)
                )

    # ---------------------------------------------------------- batch compute
    def _execute_batch(self, batch: list[_Pending]) -> list[ServedResult]:
        """Run one shape/algorithm batch on a worker thread (see module doc).

        Runs under the batcher's context (``run_in_executor`` threads do not
        inherit the event loop's contextvars, so it is re-entered here).
        """
        with use_context(self.context):
            return self._execute_batch_in_context(batch)

    def _execute_batch_in_context(self, batch: list[_Pending]) -> list[ServedResult]:
        now = time.monotonic()
        queue_wait = self.metrics.histogram("queue_wait")
        for pending in batch:
            queue_wait.observe(now - pending.enqueued_at)
        self.metrics.counter("batches_dispatched").inc()
        self.metrics.histogram("batch_size").observe(len(batch))

        live: list[_Pending] = []
        results: dict[int, ServedResult] = {}
        for idx, pending in enumerate(batch):
            if pending.deadline is not None and now > pending.deadline:
                self.metrics.counter("request_timeouts").inc()
                results[idx] = ServedResult(
                    status=STATUS_TIMEOUT,
                    error="deadline expired while queued",
                )
            else:
                live.append(pending)

        # Coalesce identical content; probe the cache once per unique key.
        by_key: "OrderedDict[str, list[int]]" = OrderedDict()
        for idx, pending in enumerate(batch):
            if idx in results:
                continue
            by_key.setdefault(pending.request.key, []).append(idx)

        batch_size = len(live)
        for key, indices in by_key.items():
            primary = batch[indices[0]]
            entry = self.cache.get(key)
            if entry is not None:
                self.metrics.counter("cache_hits").inc(len(indices))
                base = ServedResult(
                    status=STATUS_OK,
                    starts=entry.starts,
                    maxcolor=entry.maxcolor,
                    source="cache",
                    compute_seconds=entry.compute_seconds,
                    batch_size=batch_size,
                )
            else:
                self.metrics.counter("cache_misses").inc()
                base = self._compute(primary.request, batch_size)
                if base.ok:
                    self.cache.put(
                        key,
                        CacheEntry(
                            starts=base.starts,
                            maxcolor=base.maxcolor,
                            algorithm=primary.request.algorithm,
                            compute_seconds=base.compute_seconds,
                        ),
                    )
            results[indices[0]] = base
            for extra_idx in indices[1:]:
                self.metrics.counter("requests_coalesced").inc()
                results[extra_idx] = ServedResult(
                    status=base.status,
                    starts=base.starts,
                    maxcolor=base.maxcolor,
                    source="coalesced" if base.source == "computed" else base.source,
                    compute_seconds=base.compute_seconds,
                    batch_size=batch_size,
                    error=base.error,
                )
        return [results[idx] for idx in range(len(batch))]

    def _compute(self, request: ColorRequest, batch_size: int) -> ServedResult:
        """One true kernel run; the only place colorings are produced.

        One attempt on the request's ``fast`` preference (behind the
        ``service.compute`` fault site); a raise is the request's answer.
        """
        from repro.core.algorithms.registry import color_with
        from repro.core.problem import IVCInstance

        if request.tiled:
            return self._compute_tiled(request, batch_size)
        t0 = time.perf_counter()
        try:
            if request.weights.ndim == 2:
                instance = IVCInstance.from_grid_2d(request.weights)
            else:
                instance = IVCInstance.from_grid_3d(request.weights)
            inject("service.compute", request.key)
            coloring = color_with(
                instance, request.algorithm, fast=request.fast, context=self.context
            )
            if request.validate:
                coloring.check()
        except Exception as exc:
            self.metrics.counter("compute_errors").inc()
            return ServedResult(
                status=STATUS_ERROR, error=f"{type(exc).__name__}: {exc}"
            )
        elapsed = time.perf_counter() - t0
        self.metrics.histogram("compute_seconds").observe(elapsed)
        return ServedResult(
            status=STATUS_OK,
            starts=np.asarray(coloring.starts, dtype=np.int64),
            maxcolor=int(coloring.maxcolor),
            source="computed",
            compute_seconds=elapsed,
            batch_size=batch_size,
        )

    def _compute_tiled(self, request: ColorRequest, batch_size: int) -> ServedResult:
        """One tiler run for an ``api: 1`` request carrying a ``tiles`` hint.

        Bit-identical to the monolithic path (the band pass is the GLL scan),
        so the result lands in the same content-addressed cache entry a
        monolithic request for this grid would produce or consume.
        """
        from repro.tiling import color_tiled

        t0 = time.perf_counter()
        try:
            inject("service.compute", request.key)
            tiled = color_tiled(
                request.weights,
                tile_shape=request.tile_shape,
                context=self.context,
            )
        except Exception as exc:
            self.metrics.counter("compute_errors").inc()
            return ServedResult(
                status=STATUS_ERROR, error=f"{type(exc).__name__}: {exc}"
            )
        elapsed = time.perf_counter() - t0
        self.metrics.counter("tiled_requests").inc()
        self.metrics.histogram("compute_seconds").observe(elapsed)
        return ServedResult(
            status=STATUS_OK,
            starts=np.asarray(tiled.starts).ravel(),
            maxcolor=int(tiled.maxcolor),
            source="computed",
            compute_seconds=elapsed,
            batch_size=batch_size,
        )
