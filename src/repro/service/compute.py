"""The service's compute queue: one FIFO, one compute thread, single flight.

The server queues each cache miss it admits here as a
:class:`~repro.service.protocol.ColorRequest`.  Requests are coalesced by
content key: a miss whose key is already queued *or computing* joins that
key's waiters; any other miss appends one entry to the FIFO.  The dispatcher
starts the oldest entry as soon as the compute thread is free — there is no
batch window and no grouping by shape, because the per-shape substrate LRU
(:mod:`repro.kernels.substrate`) already shares one padded
:class:`~repro.kernels.substrate.StencilLayout` between requests of a shape.

Each entry, when it starts:

1. waiters whose deadline already passed are answered ``timeout``; an entry
   with no live waiter left is not computed;
2. its key probes the content-addressed result cache once, so a result that
   landed since admission (a sibling worker's spill file) is served from
   there;
3. a miss makes one :func:`~repro.core.algorithms.registry.color_with` (or
   tiler) call on the path the request chose, and caches the result.

One computation answers every waiter of its entry; each waiter keeps its own
future, so a waiter whose deadline cancels its future leaves the others
waiting.  Results are bit-identical to a direct ``color_with`` call by
construction: the queue shares computations only between equal content.

**One attempt.**  A raise answers ``error`` to every waiter (counted in
``compute_errors``) and caches nothing, so the next identical request
computes afresh; there is no retry on the reference loops.

**Shutdown.**  Requests still queued when the queue stops are answered
``overloaded`` (a retry-later signal — a restarted server will serve them);
requests in flight when the drain deadline expires are answered ``timeout``.
Neither is ever silently dropped.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.resilience.faults import inject
from repro.runtime.context import ExecutionContext, use_context
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
class _Waiter:
    """One request's resolution future and timing marks."""

    future: asyncio.Future
    enqueued_at: float
    deadline: Optional[float]


@dataclass
class _Entry:
    """One content key's computation and every request waiting on it."""

    request: ColorRequest
    waiters: list[_Waiter] = field(default_factory=list)


class ComputeQueue:
    """Runs queued misses one at a time, coalesced by content key.

    Parameters
    ----------
    cache:
        The content-addressed result cache (may have ``capacity=0``).
    metrics:
        Registry receiving queue and compute observations.
    context:
        The :class:`~repro.runtime.context.ExecutionContext` the queue
        computes under.  ``run_in_executor`` does not propagate the ambient
        contextvar onto the compute thread, so each computation re-enters it
        explicitly — that is how served colorings share the substrate caches
        and fast-path config with every other call path.
    """

    def __init__(
        self,
        cache: ResultCache,
        metrics: MetricsRegistry,
        context: ExecutionContext,
    ) -> None:
        self.cache = cache
        self.metrics = metrics
        self.context = context
        self._queue: deque[_Entry] = deque()
        self._entries: dict[str, _Entry] = {}  # queued or computing, by key
        self._running: Optional[_Entry] = None
        self._depth = 0
        self._closed = False
        self._wake: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional[asyncio.Task] = None

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="color-compute"
        )
        self._dispatcher = asyncio.create_task(self._run(), name="compute-queue")

    async def stop(self, timeout: float) -> bool:
        """Drain for up to ``timeout`` seconds, then stop; ``True`` if drained.

        A drain deadline expiring with work still outstanding never hangs
        the stop: queued requests are answered ``overloaded``, in-flight
        requests ``timeout``, and the executor is released without waiting
        for a wedged compute thread.
        """
        assert self._idle is not None and self._dispatcher is not None
        drained = True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            drained = self._idle.is_set()  # a zero budget times out at once
        self._closed = True
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        for entry in self._queue:
            self._answer(entry.waiters, STATUS_OVERLOADED, "service shutting down")
        self._queue.clear()
        self._depth = 0
        if self._running is not None:
            self._answer(
                self._running.waiters, STATUS_TIMEOUT,
                "drain deadline expired during shutdown",
            )
        # Only wait for the compute thread after a clean drain; a wedged
        # computation must not turn stop() into a hang.
        self._executor.shutdown(wait=drained, cancel_futures=True)
        return drained

    # ------------------------------------------------------------- admission
    @property
    def depth(self) -> int:
        """Requests queued but not yet computing (backpressure signal)."""
        return self._depth

    def submit(self, request: ColorRequest) -> asyncio.Future:
        """Queue a request; resolves to a :class:`ServedResult`.

        The caller (the server) enforces the admission limit *before*
        calling; ``submit`` itself never rejects.
        """
        if self._closed:
            raise RuntimeError("compute queue is stopped")
        now = time.monotonic()
        waiter = _Waiter(
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=now,
            deadline=now + request.timeout if request.timeout else None,
        )
        entry = self._entries.get(request.key)
        if entry is None:
            entry = self._entries[request.key] = _Entry(request)
            self._queue.append(entry)
            self._idle.clear()
            self._wake.set()
        entry.waiters.append(waiter)
        if entry is not self._running:
            self._depth += 1
            self.metrics.gauge("queue_depth").set(self._depth)
        return waiter.future

    # ------------------------------------------------------------- dispatcher
    async def _run(self) -> None:
        assert self._wake is not None and self._idle is not None
        loop = asyncio.get_running_loop()
        while True:
            while not self._queue:
                self._idle.set()
                self._wake.clear()
                await self._wake.wait()
            entry = self._running = self._queue.popleft()
            self._depth -= len(entry.waiters)
            self.metrics.gauge("queue_depth").set(self._depth)
            if self._expire(entry):
                try:
                    result = await loop.run_in_executor(
                        self._executor, self._execute, entry.request
                    )
                except Exception as exc:  # compute-thread infrastructure failure
                    result = ServedResult(
                        status=STATUS_ERROR, error=f"{type(exc).__name__}: {exc}"
                    )
                self._resolve(entry, result)
            del self._entries[entry.request.key]
            self._running = None

    def _expire(self, entry: _Entry) -> bool:
        """Answer the entry's expired waiters ``timeout``; any left live?"""
        now = time.monotonic()
        queue_wait = self.metrics.histogram("queue_wait")
        for waiter in entry.waiters:
            queue_wait.observe(now - waiter.enqueued_at)
        self._answer(
            [w for w in entry.waiters if w.deadline is not None and now > w.deadline],
            STATUS_TIMEOUT, "deadline expired while queued",
        )
        return any(not w.future.done() for w in entry.waiters)

    def _resolve(self, entry: _Entry, result: ServedResult) -> None:
        """Fan one computation's result out to every waiter still waiting."""
        waiters = [w for w in entry.waiters if not w.future.done()]
        if not waiters:
            return  # every waiter timed out: the result only warmed the cache
        answered = len(waiters)
        if result.source == "cache":
            self.metrics.counter("cache_hits").inc(answered)
        if answered > 1:
            self.metrics.counter("requests_coalesced").inc(answered - 1)
        first = replace(result, batch_size=answered)
        rest = first
        if first.source == "computed":
            rest = replace(first, source="coalesced")
        waiters[0].future.set_result(first)
        for waiter in waiters[1:]:
            waiter.future.set_result(rest)

    def _answer(self, waiters: list[_Waiter], status: str, reason: str) -> None:
        """Answer each of ``waiters`` still waiting with ``status``."""
        for waiter in waiters:
            if not waiter.future.done():
                if status == STATUS_TIMEOUT:
                    self.metrics.counter("request_timeouts").inc()
                waiter.future.set_result(ServedResult(status=status, error=reason))

    # ---------------------------------------------------------------- compute
    def _execute(self, request: ColorRequest) -> ServedResult:
        """Cache probe, then one computation, on the compute thread.

        Runs under the queue's context (``run_in_executor`` threads do not
        inherit the event loop's contextvars, so it is re-entered here).
        """
        with use_context(self.context):
            entry = self.cache.get(request.key)
            if entry is not None:
                return ServedResult(
                    status=STATUS_OK,
                    starts=entry.starts,
                    maxcolor=entry.maxcolor,
                    source="cache",
                    compute_seconds=entry.compute_seconds,
                )
            self.metrics.counter("cache_misses").inc()
            result = self._compute(request)
            if result.ok:
                self.cache.put(
                    request.key,
                    CacheEntry(
                        starts=result.starts,
                        maxcolor=result.maxcolor,
                        algorithm=request.algorithm,
                        compute_seconds=result.compute_seconds,
                    ),
                )
            return result

    def _compute(self, request: ColorRequest) -> ServedResult:
        """One true kernel run; the only place colorings are produced.

        One attempt behind the ``service.compute`` fault site: a ``tiles``
        request runs the tiler (bit-identical to the monolithic path, so it
        shares the cache entry a monolithic request for the grid makes), any
        other request one ``color_with`` call on its ``fast`` preference.  A
        raise is every waiter's answer.
        """
        from repro.core.algorithms.registry import color_with
        from repro.core.problem import IVCInstance

        t0 = time.perf_counter()
        try:
            inject("service.compute", request.key)
            if request.tiled:
                from repro.tiling import color_tiled

                coloring = color_tiled(
                    request.weights,
                    tile_shape=request.tile_shape,
                    context=self.context,
                )
            else:
                coloring = color_with(
                    IVCInstance.from_grid(request.weights), request.algorithm, fast=request.fast,
                    context=self.context,
                )
                if request.validate:
                    coloring.check()
        except Exception as exc:
            self.metrics.counter("compute_errors").inc()
            return ServedResult(
                status=STATUS_ERROR, error=f"{type(exc).__name__}: {exc}"
            )
        elapsed = time.perf_counter() - t0
        if request.tiled:
            self.metrics.counter("tiled_requests").inc()
        self.metrics.histogram("compute_seconds").observe(elapsed)
        return ServedResult(
            status=STATUS_OK,
            starts=np.asarray(coloring.starts, dtype=np.int64).ravel(),
            maxcolor=int(coloring.maxcolor),
            source="computed",
            compute_seconds=elapsed,
        )
