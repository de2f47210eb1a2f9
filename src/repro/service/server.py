"""The asyncio coloring server: admission control, deadlines, graceful drain.

:class:`ColoringService` ties the protocol, cache, compute queue, and metrics
together behind a TCP endpoint that speaks binary frames
(:mod:`repro.service.frames`):

* **Admission control / backpressure** — a request arriving while the compute
  queue already holds ``queue_limit`` requests is answered ``overloaded``
  immediately instead of being buffered without bound; clients treat that as
  a retry-later signal.
* **Deadlines** — every request gets ``timeout`` (client-supplied, capped by
  the server default); expiry while queued or computing yields a ``timeout``
  response and the computation's result, if it still completes, only warms
  the cache.
* **Graceful drain** — shutdown closes the listener, lets queued requests
  finish (bounded by ``drain_timeout``), flushes responses, then stops the
  compute queue.

:class:`ServerThread` runs the whole service on a private event loop in a
daemon thread — the harness used by the benchmark, the load generator's
``--spawn`` mode, and the tests.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.algorithms.registry import REGISTRY, UnknownAlgorithmError
from repro.obs.metrics import MetricsRegistry
from repro.runtime.config import RuntimeConfig
from repro.runtime.context import ExecutionContext, get_context
from repro.service.cache import ResultCache
from repro.service.compute import ComputeQueue
from repro.resilience.faults import inject
from repro.service.frames import (
    OP_COLOR,
    OP_HELLO,
    OP_METRICS,
    OP_PING,
    OP_RECOLOR,
    OP_RESPONSE,
    OP_SHUTDOWN,
    WIRE_PROTOCOLS,
    Frame,
    FrameError,
    TornFrameError,
    decode_color_request,
    decode_recolor_request,
    encode_frame,
    encode_hello_ok,
    encode_recolor_result,
    encode_result,
    read_frame_async,
)
from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    STATUS_ERROR,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_TIMEOUT,
    UNKNOWN_SESSION_CODE,
    ColorRequest,
    ProtocolError,
    RecolorRequest,
    ServedResult,
)
from repro.service.durability import SessionDurability
from repro.service.sessions import SessionStore, UnknownSessionError


@dataclass
class ServerConfig:
    """Tunables of one :class:`ColoringService` instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off `service.port`
    queue_limit: int = 256  # admission cap; beyond it requests are rejected
    cache_size: int = 512  # result-cache entries (0 disables caching)
    spill_dir: Optional[str] = None  # the cache's disk tier and session journals
    worker_id: str = "w0"  # identity stamped on responses and /metrics
    default_timeout: float = 30.0  # per-request deadline cap, seconds
    drain_timeout: float = 30.0  # graceful-shutdown budget, seconds
    runtime: Optional[RuntimeConfig] = None  # None = inherit the ambient context's
    extra_metadata: dict = field(default_factory=dict)


class ColoringService:
    """The online coloring service (see module docstring).

    The service computes under an :class:`ExecutionContext` of its own: by
    default a *child* of the ambient context — same substrate caches (so
    direct callers and the service share per-shape geometry), but a fresh
    metrics registry so ``/metrics`` reports this service alone.  A
    ``config.runtime`` override instead builds an independent context around
    that :class:`RuntimeConfig`; an explicit ``context=`` wins over both.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        *,
        context: Optional[ExecutionContext] = None,
    ) -> None:
        self.config = config or ServerConfig()
        if context is not None:
            self.context = context
        elif self.config.runtime is not None:
            self.context = ExecutionContext(self.config.runtime)
        else:
            self.context = get_context().child(metrics=MetricsRegistry())
        self.metrics = self.context.metrics
        self.cache = ResultCache(
            capacity=self.config.cache_size,
            spill_dir=self.config.spill_dir,
        )
        self.queue = ComputeQueue(self.cache, self.metrics, self.context)
        incr = self.context.config.incremental
        self.durability: Optional[SessionDurability] = None
        if self.config.spill_dir:
            # Sessions journal under the *shared* spill directory so a
            # restarted or sibling worker sees them — the same tier the
            # result cache uses for its entries (different file suffixes,
            # own `sessions/` subdirectory: no collisions).
            self.durability = SessionDurability(
                Path(self.config.spill_dir) / "sessions",
                self.context.config.durability,
                metrics=self.metrics,
            )
        self.sessions = SessionStore(
            limit=incr.session_limit,
            ttl=incr.session_ttl,
            metrics=self.metrics,
            recovery=(
                self.durability.recover if self.durability is not None else None
            ),
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[asyncio.Task] = set()
        self._shutdown_requested: Optional[asyncio.Event] = None
        self._recolor_lock: Optional[asyncio.Lock] = None
        self._started_at = 0.0

    # -------------------------------------------------------------- lifecycle
    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        await self.queue.start()
        self._shutdown_requested = asyncio.Event()
        self._recolor_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_MESSAGE_BYTES,
        )
        self._started_at = time.monotonic()

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` op (or :meth:`request_shutdown`) arrives."""
        assert self._shutdown_requested is not None
        await self._shutdown_requested.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish queued work, close.

        The whole drain shares one ``drain_timeout`` budget.  If it expires
        with requests still queued or in flight, the compute queue answers them
        (``overloaded`` / ``timeout``) rather than hanging the stop, and the
        expiry is counted in the ``drain_expired`` metric.  Connection
        handlers then get a short grace period to flush those responses;
        handlers still open after it — keep-alive clients idling in a read,
        which would otherwise hold the stop until *they* hang up — are
        cancelled.
        """
        deadline = time.monotonic() + self.config.drain_timeout
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        remaining = max(0.0, deadline - time.monotonic())
        if not await self.queue.stop(remaining):
            self.metrics.counter("drain_expired").inc()
        if self._connections:
            _done, lingering = await asyncio.wait(self._connections, timeout=1.0)
            for task in lingering:
                task.cancel()
            if lingering:
                await asyncio.wait(lingering, timeout=1.0)

    # ------------------------------------------------------------ connections
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection's frames in order until EOF or shutdown.

        A peer killed mid-frame surfaces as the typed
        :class:`~repro.service.frames.TornFrameError`, is counted in
        ``torn_frames``, and closes the connection quietly.  Any other
        framing error — bytes that are not a frame at all included — is
        answered once with an ``invalid`` frame (the stream position is
        untrusted afterwards), counted in ``protocol_errors``, and also
        closes the connection.
        """
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        self.metrics.counter("binary_connections").inc()
        try:
            while True:
                try:
                    frame = await read_frame_async(reader)
                except TornFrameError:
                    self.metrics.counter("torn_frames").inc()
                    break
                except FrameError as exc:
                    self.metrics.counter("protocol_errors").inc()
                    writer.write(
                        encode_frame(
                            OP_RESPONSE,
                            {"id": "", "status": STATUS_INVALID, "error": str(exc)},
                        )
                    )
                    await writer.drain()
                    break
                if frame is None:
                    break  # clean EOF at a frame boundary
                response, shutdown = await self._handle_frame(frame)
                writer.write(response)
                await writer.drain()
                if shutdown:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_frame(self, frame: Frame) -> tuple[bytes, bool]:
        """Serve one decoded frame; returns ``(response bytes, shutdown?)``."""
        request_id = frame.request_id
        if frame.opcode == OP_HELLO:
            return encode_hello_ok(self.config.worker_id), False
        if frame.opcode == OP_PING:
            return (
                encode_frame(
                    OP_RESPONSE,
                    {"id": request_id, "status": "ok", "op_echo": "ping"},
                ),
                False,
            )
        if frame.opcode == OP_METRICS:
            include_state = bool(frame.header.get("state"))
            return (
                encode_frame(
                    OP_RESPONSE,
                    {
                        "id": request_id,
                        "status": "ok",
                        "metrics": self.snapshot(include_state=include_state),
                    },
                ),
                False,
            )
        if frame.opcode == OP_SHUTDOWN:
            self.request_shutdown()
            return (
                encode_frame(
                    OP_RESPONSE,
                    {"id": request_id, "status": "ok", "op_effect": "shutdown"},
                ),
                True,
            )
        if frame.opcode == OP_RECOLOR:
            try:
                request = decode_recolor_request(frame)
            except ProtocolError as exc:
                self.metrics.counter("invalid_requests").inc()
                return (
                    encode_frame(
                        OP_RESPONSE,
                        {
                            "id": request_id,
                            "status": STATUS_INVALID,
                            "error": str(exc),
                        },
                    ),
                    False,
                )
            header, starts, changed = await self._serve_recolor(request)
            if changed is not None:
                idx, new = changed
                return (
                    encode_recolor_result(
                        header, changed_idx=idx, changed_starts=new
                    ),
                    False,
                )
            return encode_recolor_result(header, starts=starts), False
        if frame.opcode == OP_COLOR:
            self.metrics.counter("requests_total").inc()
            try:
                request = decode_color_request(frame)
            except ProtocolError as exc:
                self.metrics.counter("invalid_requests").inc()
                return (
                    encode_frame(
                        OP_RESPONSE,
                        {
                            "id": request_id,
                            "status": STATUS_INVALID,
                            "error": str(exc),
                        },
                    ),
                    False,
                )
            result, total = await self._serve_color(request)
            return (
                encode_result(
                    result,
                    request_id,
                    extra={
                        "total_ms": total * 1000.0,
                        "worker": self.config.worker_id,
                    },
                    key=request.key,
                ),
                False,
            )
        self.metrics.counter("protocol_errors").inc()
        return (
            encode_frame(
                OP_RESPONSE,
                {
                    "id": request_id,
                    "status": STATUS_INVALID,
                    "error": f"unexpected opcode {frame.opcode}",
                },
            ),
            False,
        )

    # ------------------------------------------------------------- color path
    async def _serve_color(self, request: ColorRequest) -> tuple[ServedResult, float]:
        """Registry check, cache probe, admission and deadline for one request.

        Every ``color`` frame reaches this one path, and only after
        :func:`~repro.service.frames.decode_color_request` validated it, so
        the answer to the same bytes never depends on cache state.  A
        content-key hit is answered *here*, before admission control
        (``fastpath_hits``), while misses queue for the compute queue's
        single attempt.
        """
        received = time.monotonic()
        try:
            REGISTRY.get(request.algorithm)  # cheap pre-admission validation
        except UnknownAlgorithmError as exc:
            result = ServedResult(status=STATUS_ERROR, error=str(exc))
        else:
            # Peek, not get: an absence here must not double-count the miss
            # the compute queue will count.
            entry = self.cache.peek(request.key)
            if entry is not None:
                self.metrics.counter("cache_hits").inc()
                self.metrics.counter("fastpath_hits").inc()
                result = ServedResult(
                    status=STATUS_OK,
                    starts=entry.starts,
                    maxcolor=entry.maxcolor,
                    source="cache",
                    compute_seconds=entry.compute_seconds,
                )
            elif self.queue.depth >= self.config.queue_limit:
                # Admission control: bounded queue, immediate backpressure.
                self.metrics.counter("rejected_overload").inc()
                result = ServedResult(
                    status=STATUS_OVERLOADED,
                    error=f"queue full ({self.config.queue_limit} requests)",
                )
            else:
                timeout = min(
                    request.timeout or self.config.default_timeout,
                    self.config.default_timeout,
                )
                if request.timeout is None:
                    request = replace(request, timeout=timeout)
                try:
                    result = await asyncio.wait_for(
                        self.queue.submit(request), timeout
                    )
                except asyncio.TimeoutError:
                    self.metrics.counter("request_timeouts").inc()
                    result = ServedResult(
                        status=STATUS_TIMEOUT,
                        error=f"deadline of {timeout:.3f}s expired",
                    )
        total = time.monotonic() - received
        self.metrics.histogram("request_latency").observe(total)
        if result.ok:
            self.metrics.counter("responses_ok").inc()
        elif result.status == STATUS_ERROR:
            self.metrics.counter("request_errors").inc()
        return result, total

    # ------------------------------------------------------- recolor sessions
    async def _serve_recolor(
        self, request: RecolorRequest
    ) -> tuple[dict, Optional[np.ndarray], Optional[tuple]]:
        """Serve one recolor op; ``(header, full starts?, (idx, starts)?)``.

        The caller ships the arrays as payload bytes.  A seed colors the grid
        from scratch and stores the session; a delta patches the held
        coloring through :func:`repro.incremental.recolor_grid` and answers
        with only the cells whose start changed.  An unknown/expired
        session is a typed ``invalid`` answer (``code: "unknown-session"``)
        on the live connection — state loss is recoverable, so it must not
        cost the client its transport.

        The ``service.recolor`` fault site is drawn *before* any session
        state is mutated, so an injected error leaves the session exactly
        as the previous delta committed it — a client retry (deltas carry
        absolute weights) is then idempotent.  One lock serializes recolor
        computes: deltas are causally ordered per session, and cross-session
        fairness is not worth racing commits for.  Each op's whole body
        (:meth:`_recolor_seed`, :meth:`_recolor_delta`) runs as one function
        on the executor: one thread hop per op.

        With a spill directory (``--spill-dir``), durability is on: every
        delta is journaled *before* it is acknowledged — a failed
        append answers ``error`` and the client's idempotent re-send
        journals again — and an unknown session first attempts journal/
        checkpoint replay (``session_recoveries``/``journal_replay_seconds``
        in ``/metrics``, ``recovered: true`` on the response) before the
        typed error is emitted, making worker crashes and router failover
        invisible to a mid-stream client.
        """
        self.metrics.counter("requests_total").inc()
        received = time.monotonic()
        base = {"id": request.request_id, "session": request.session,
                "worker": self.config.worker_id}
        serve = self._recolor_seed if request.is_seed else self._recolor_delta
        assert self._recolor_lock is not None
        try:
            async with self._recolor_lock:
                header, starts, changed = await asyncio.get_running_loop().run_in_executor(
                    None, serve, request, base
                )
        except Exception as exc:
            self._finish_recolor(received, ok=False)
            header = {
                **base,
                "status": STATUS_ERROR,
                "error": f"{type(exc).__name__}: {exc}",
            }
            return header, None, None
        if header["status"] == STATUS_OK:
            self._finish_recolor(received, ok=True)
        return header, starts, changed

    def _recolor_seed(
        self, request: RecolorRequest, base: dict
    ) -> tuple[dict, np.ndarray, None]:
        """Color a seed from scratch and store (and journal) its session."""
        from repro.incremental.engine import full_recolor

        inject("service.recolor", f"{request.session}#seed")
        weights = request.weights
        starts = full_recolor(weights, request.algorithm, context=self.context)
        maxcolor = int((starts + weights).max()) if weights.size else 0
        session = self.sessions.open(
            request.session, request.algorithm, weights, starts, maxcolor,
        )
        if self.durability is not None:
            # WAL the seed before acknowledging it: a failed journal write
            # fails the seed (the client retries) rather than leaving an
            # unrecoverable session.
            self.durability.record_seed(session)
        header = {
            **base,
            "status": STATUS_OK,
            "mode": "seed",
            "algorithm": request.algorithm,
            "shape": [int(s) for s in weights.shape],
            "maxcolor": maxcolor,
        }
        return header, starts, None

    def _recolor_delta(
        self, request: RecolorRequest, base: dict
    ) -> tuple[dict, None, Optional[tuple]]:
        """Patch a held session for one delta; journal it before the commit."""
        from repro.incremental.engine import recolor_grid

        lookup_started = time.perf_counter()
        try:
            # Recovery-aware lookup: an unknown session first gets a
            # journal/checkpoint replay before the typed error.
            session, recovered = self.sessions.get_or_recover(request.session)
        except UnknownSessionError as exc:
            self.metrics.counter("recolor_unknown_sessions").inc()
            header = {
                **base,
                "status": STATUS_INVALID,
                "code": UNKNOWN_SESSION_CODE,
                "error": str(exc),
            }
            return header, None, None
        if recovered:
            self.metrics.histogram("journal_replay_seconds").observe(
                time.perf_counter() - lookup_started
            )
            base["recovered"] = True
        n = session.weights.size
        idx = request.delta_idx
        if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= n):
            self.metrics.counter("invalid_requests").inc()
            header = {
                **base,
                "status": STATUS_INVALID,
                "error": f"delta indices out of range [0, {n})",
            }
            return header, None, None
        inject("service.recolor", f"{request.session}#{session.deltas_applied}")
        new_weights = session.weights.copy()
        new_weights.ravel()[idx] = request.delta_weights
        old_starts = session.starts
        outcome = recolor_grid(
            new_weights, old_starts, idx,
            algorithm=session.algorithm, context=self.context,
        )
        changed_idx = np.flatnonzero(outcome.starts.ravel() != old_starts.ravel())
        changed_starts = outcome.starts.ravel()[changed_idx]
        if self.durability is not None:
            # WAL-before-ack: journal the delta before committing it.  A
            # failed append raises into the generic error answer; the
            # session is untouched and the client's re-send (absolute
            # weights) is idempotent.
            self.durability.record_delta(
                request.session, session.deltas_applied + 1, idx,
                request.delta_weights,
            )
        self.sessions.commit(session, new_weights, outcome.starts, outcome.maxcolor)
        if self.durability is not None:
            # Compaction is best-effort and never fails the delta: a
            # skipped/corrupt checkpoint just leaves the journal longer for
            # the next replay.
            try:
                self.durability.maybe_checkpoint(session)
            except Exception:
                self.metrics.counter("checkpoint_write_errors").inc()
        header = {
            **base,
            "status": STATUS_OK,
            "mode": outcome.mode,
            "maxcolor": outcome.maxcolor,
            "deltas_applied": session.deltas_applied,
            "recolor": outcome.stats(),
        }
        return header, None, (changed_idx, changed_starts)

    def _finish_recolor(self, received: float, *, ok: bool) -> None:
        total = time.monotonic() - received
        self.metrics.histogram("request_latency").observe(total)
        if ok:
            self.metrics.counter("responses_ok").inc()
        else:
            self.metrics.counter("request_errors").inc()

    # ---------------------------------------------------------------- metrics
    def snapshot(self, include_state: bool = False) -> dict:
        """Metrics + cache + substrate-cache state, JSON-serializable.

        ``include_state=True`` carries mergeable histogram state — the form
        the router requests from each worker so it can fold per-worker
        snapshots into one fleet view with ``merge_snapshots``.
        """
        from repro.kernels.substrate import substrate_stats

        snap = self.metrics.snapshot(include_state=include_state)
        snap["cache"] = self.cache.stats()
        snap["sessions"] = self.sessions.stats()
        if self.durability is not None:
            snap["sessions"]["durability"] = self.durability.stats()
        snap["substrate"] = substrate_stats(self.context)
        snap["server"] = {
            "worker_id": self.config.worker_id,
            "wire_protocols": list(WIRE_PROTOCOLS),
            "uptime_seconds": time.monotonic() - self._started_at,
            "queue_depth": self.queue.depth,
            "queue_limit": self.config.queue_limit,
            "cache_size": self.config.cache_size,
            **self.config.extra_metadata,
        }
        return snap


async def _run_endpoint(endpoint, ready=None) -> None:
    """Start a service or router and serve until a shutdown op."""
    await endpoint.start()
    if ready is not None:
        ready(endpoint)
    await endpoint.serve_until_shutdown()


async def run_service(config: ServerConfig, *, ready=None) -> None:
    """Start a service and serve until a shutdown op (CLI entry)."""
    await _run_endpoint(ColoringService(config), ready)


class _EndpointThread:
    """A service or router on a private event loop in a daemon thread.

    ``start()`` blocks until the listener is bound and returns the thread;
    ``stop()`` requests a graceful drain and joins the thread.  Subclasses
    name the endpoint and config classes, the thread and the start timeout.
    """

    _endpoint_class: type
    _config_class: type
    _name: str
    _start_timeout: float

    def __init__(self, config=None) -> None:
        self.config = config or self._config_class()
        self.endpoint = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        assert self.endpoint is not None
        return self.endpoint.port

    @property
    def host(self) -> str:
        return self.config.host

    def start(self, timeout: Optional[float] = None):
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), name=self._name, daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self._start_timeout if timeout is None else timeout):
            raise RuntimeError(f"{self._name} failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"{self._name} failed to start: {self._error}")
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            self.endpoint = self._endpoint_class(self.config)
            await self.endpoint.start()
        except BaseException as exc:  # startup failure: surface to starter
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self.endpoint.serve_until_shutdown()

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self.endpoint is not None:
            try:
                self._loop.call_soon_threadsafe(self.endpoint.request_shutdown)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class ServerThread(_EndpointThread):
    """A :class:`ColoringService` in a daemon thread (see :class:`_EndpointThread`).

    Used by the benchmark, tests, and ``stencil-ivc loadgen --spawn``.
    """

    _endpoint_class = ColoringService
    _config_class = ServerConfig
    _name = "coloring-service"
    _start_timeout = 10.0

    @property
    def service(self) -> Optional[ColoringService]:
        return self.endpoint
