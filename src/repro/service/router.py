"""The accept/route front process of a multi-worker coloring service.

``stencil-ivc serve --workers N`` runs one :class:`ColoringRouter` in front
of a :class:`~repro.service.workers.WorkerPool`.  The router owns the
public TCP endpoint and stays deliberately tiny: it never colors, never
caches results, and never parses a request body.

**Content-key routing.**  Every color frame carries its request's
``content_key`` in the fixed preamble, so the router ranks workers with
rendezvous (highest-random-weight) hashing over the raw key bytes and
forwards the frame verbatim to the top-ranked live worker.  Identical
requests therefore always land on the same worker and its in-memory
cache; the key is a routing *hint* only — workers recompute it from the
weights, so a mis-keyed frame can degrade locality but never poison a
cache entry.

**Session routing.**  ``recolor`` frames route the same way but by a
*session*-derived key (:func:`repro.service.frames.session_routing_key`),
so one session's seed and every delta land on the same worker.  When that
worker dies the failover walk re-sends to a sibling, which replays the
session's write-ahead journal from the shared spill directory
(:mod:`repro.service.durability`) before serving — crash-transparent to
the streaming client.

**Failover and supervision.**  A forward that fails mid-flight walks down
the rendezvous ranking and re-sends — safe because requests are
content-addressed and idempotent — while a supervisor task respawns dead
workers in the background (blame-isolated: one slot at a time, counted in
``worker_restarts``).  Killing a worker mid-run therefore degrades
latency on its key range; it does not fail clients.

**Metrics.**  ``/metrics`` against the router returns its own routing
counters plus per-worker snapshots (fetched live with mergeable histogram
state) and a ``fleet`` view folded with
:func:`repro.obs.metrics.merge_snapshots`.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.service.frames import (
    FLAG_TRAILING_NEWLINE,
    OP_COLOR,
    OP_HELLO,
    OP_METRICS,
    OP_PING,
    OP_RECOLOR,
    OP_RESPONSE,
    OP_SHUTDOWN,
    WIRE_PROTOCOLS,
    FrameError,
    TornFrameError,
    decode_frame,
    decode_preamble,
    encode_frame,
    encode_hello_ok,
    frame_timeout,
    read_preamble,
)
from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    STATUS_ERROR,
    STATUS_INVALID,
)
from repro.service.server import ServerConfig, _EndpointThread, _run_endpoint
from repro.service.workers import WorkerPool

#: How often the supervisor sweeps for dead workers, seconds.
SUPERVISOR_INTERVAL = 0.2


@dataclass
class RouterConfig:
    """Tunables of one :class:`ColoringRouter` (public endpoint + pool)."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    spill_dir: Optional[str] = None  # None = pool-owned temp dir
    worker_config: ServerConfig = field(default_factory=ServerConfig)
    forward_timeout: float = 60.0  # per-hop budget talking to one worker
    drain_timeout: float = 10.0


def rank_workers(key: str, count: int) -> list[int]:
    """Worker slots for ``key``, best first (rendezvous hashing).

    Every (key, slot) pair gets an independent pseudo-random score; the
    ranking is stable under membership changes — removing one worker only
    moves *its* keys, which is what keeps sibling caches warm through a
    restart.  An empty key still ranks deterministically.
    """
    scores = []
    for slot in range(count):
        digest = hashlib.blake2b(
            f"{key}|{slot}".encode(), digest_size=8
        ).digest()
        scores.append((int.from_bytes(digest, "big"), slot))
    return [slot for _, slot in sorted(scores, reverse=True)]


async def _read_raw_frame(
    reader: asyncio.StreamReader
) -> Optional[tuple[int, str, bytes]]:
    """One frame as ``(opcode, key, raw bytes)`` without parsing the body.

    The router's hot path: preamble fields are enough to route, so the
    header and payload stay opaque bytes.  Same EOF/truncation contract as
    :func:`~repro.service.frames.read_frame_async`.
    """
    head = await read_preamble(reader)
    if head is None:
        return None
    _version, flags, opcode, key, header_len, payload_len = decode_preamble(head)
    tail = 1 if flags & FLAG_TRAILING_NEWLINE else 0
    try:
        body = await reader.readexactly(header_len + payload_len + tail)
    except asyncio.IncompleteReadError as exc:
        raise TornFrameError(
            f"frame body truncated ({len(exc.partial)} of {exc.expected} bytes)"
        ) from None
    return opcode, key, head + body


class ColoringRouter:
    """The accept/route front process (see module docstring)."""

    def __init__(self, config: Optional[RouterConfig] = None) -> None:
        self.config = config or RouterConfig()
        self.pool = WorkerPool(
            self.config.worker_config,
            self.config.workers,
            spill_dir=self.config.spill_dir,
        )
        self.metrics = MetricsRegistry()
        # Hot keys repeat; rendezvous hashing is pure in (key, count), so
        # the ranking is memoized (bounded — the hot set is small).
        self._rank_cache: dict[str, list[int]] = {}
        # Counter handles resolved once: the registry lookup takes a lock,
        # and the forward path pays these two on every routed response.
        self._routed_total = self.metrics.counter("routed_total")
        self._routed_to = [
            self.metrics.counter(f"routed_to.w{slot}")
            for slot in range(self.config.workers)
        ]
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[asyncio.Task] = set()
        self._supervisor: Optional[asyncio.Task] = None
        self._shutdown_requested: Optional[asyncio.Event] = None
        self._restart_lock: Optional[asyncio.Lock] = None
        self._started_at = 0.0

    # -------------------------------------------------------------- lifecycle
    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        await asyncio.to_thread(self.pool.start)
        self._shutdown_requested = asyncio.Event()
        self._restart_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_MESSAGE_BYTES,
        )
        self._supervisor = asyncio.create_task(
            self._supervise(), name="router-supervisor"
        )
        self._started_at = time.monotonic()

    async def serve_until_shutdown(self) -> None:
        assert self._shutdown_requested is not None
        await self._shutdown_requested.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def stop(self) -> None:
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._connections:
            _done, lingering = await asyncio.wait(
                self._connections, timeout=self.config.drain_timeout
            )
            for task in lingering:
                task.cancel()
            if lingering:
                await asyncio.wait(lingering, timeout=1.0)
        await asyncio.to_thread(self.pool.stop)

    # ------------------------------------------------------------- supervision
    async def _supervise(self) -> None:
        """Respawn dead workers, one slot at a time, forever."""
        while True:
            await asyncio.sleep(SUPERVISOR_INTERVAL)
            for slot in self.pool.dead_slots():
                await self._restart_slot(slot)

    async def _restart_slot(self, slot: int) -> None:
        assert self._restart_lock is not None
        async with self._restart_lock:
            restarted = await asyncio.to_thread(self.pool.ensure_alive, slot)
        if restarted:
            self.metrics.counter("worker_restarts").inc()

    # ------------------------------------------------------------- forwarding
    def _ranking(self, key: str) -> list[int]:
        """Memoized rendezvous ranking for ``key`` (pure in key + count)."""
        ranking = self._rank_cache.get(key)
        if ranking is None:
            if len(self._rank_cache) >= 4096:
                self._rank_cache.clear()
            ranking = rank_workers(key, len(self.pool.handles))
            self._rank_cache[key] = ranking
        return ranking

    async def _forward_to_slot(
        self, slot: int, raw: bytes, conns: dict
    ) -> bytes:
        """One forward hop to worker ``slot`` over a pooled connection.

        ``conns`` caches one upstream connection per slot for the lifetime
        of the client connection (requests on a connection are serial, so
        no multiplexing is needed).  A cached connection that has gone
        stale — the worker restarted on a new port, or closed it — is
        dropped and the hop retried once on a fresh connection before the
        failure propagates to the failover ranking.
        """
        handle = self.pool.handles[slot]
        cached = conns.get(slot)
        if cached is not None and cached[2] != handle.port:
            cached[1].close()
            conns.pop(slot, None)
            cached = None
        for attempt in (0, 1):
            entry = conns.get(slot)
            if entry is None:
                reader, writer = await asyncio.open_connection(
                    handle.host, handle.port, limit=MAX_MESSAGE_BYTES
                )
                conns[slot] = (reader, writer, handle.port)
            else:
                reader, writer, _port = entry
            try:
                writer.write(raw)
                await writer.drain()
                async with frame_timeout(self.config.forward_timeout):
                    framed = await _read_raw_frame(reader)
                if framed is None:
                    raise ConnectionResetError("worker closed mid-request")
                return framed[2]
            except (OSError, asyncio.TimeoutError, TornFrameError) as exc:
                writer.close()
                conns.pop(slot, None)
                if attempt == 1 or cached is None:
                    raise
                cached = None  # stale pooled connection: one fresh retry
                del exc

    async def _forward_raw(
        self, key: str, raw: bytes, conns: dict
    ) -> tuple[Optional[bytes], str]:
        """Send ``raw`` to the best live worker; returns (response, error).

        Walks the rendezvous ranking on transport failure — the re-send is
        safe because color requests are content-addressed and idempotent.
        A worker found dead is handed to the restart path immediately
        instead of waiting for the supervisor's next sweep.
        """
        ranking = self._ranking(key)
        errors = []
        for slot in ranking:
            handle = self.pool.handles[slot]
            try:
                response = await self._forward_to_slot(slot, raw, conns)
            except (
                OSError,
                asyncio.TimeoutError,
                TornFrameError,
                FrameError,
            ) as exc:
                errors.append(f"{handle.worker_id}: {type(exc).__name__}: {exc}")
                self.metrics.counter("router_failover").inc()
                await self._restart_slot(slot)
                continue
            self._routed_total.inc()
            self._routed_to[slot].inc()
            return response, ""
        return None, "; ".join(errors) or "no workers available"

    # ------------------------------------------------------------ connections
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            await self._serve(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Pipelined frame loop: forward immediately, respond in order.

        Color frames are written to their rendezvous worker as soon as they
        are read; a pump task then reads worker responses in request order
        and relays them to the client.  A client that pipelines k frames
        therefore keeps k requests in flight across the pool instead of
        paying a full router round trip per frame.  Two upstream pools are
        kept deliberately separate: ``conns`` carries pipelined frames
        (read only by the pump, strictly in descriptor order) while
        ``fb_conns`` serves the strict request/response failover re-sends —
        sharing one pool would let a re-sent request steal an in-flight
        response.  Descriptors remember the exact connection their frame
        was written to; if it is gone by read time (worker death tears it
        down), the request is re-forwarded from its raw bytes, which is
        safe because color requests are content-addressed and idempotent.

        A torn frame is counted in ``torn_frames``; any other framing error
        — bytes that are not a frame included — is answered with one
        ``invalid`` frame, counted in ``protocol_errors``, and ends the
        connection.
        """
        self.metrics.counter("binary_connections").inc()
        conns: dict = {}
        fb_conns: dict = {}
        pending: asyncio.Queue = asyncio.Queue(maxsize=256)
        client_gone = False

        async def pump() -> None:
            nonlocal client_gone
            done = False
            while not done:
                # Greedy drain: responses for one client burst become one
                # write to the client socket instead of one send per frame.
                batch = [await pending.get()]
                while len(batch) < 64:
                    try:
                        batch.append(pending.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                out: list[bytes] = []
                try:
                    for item in batch:
                        if item is None:
                            done = True
                            break
                        if item[0] == "bytes":
                            out.append(item[1])
                        elif not client_gone:
                            _kind, slot, entry, key, raw = item
                            out.append(
                                await self._pipelined_response(
                                    slot, entry, key, raw, conns, fb_conns
                                )
                            )
                    if out and not client_gone:
                        writer.write(b"".join(out))
                        await writer.drain()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    client_gone = True
                except Exception:
                    # Never die mid-queue: the read loop blocks on put().
                    client_gone = True

        pump_task = asyncio.create_task(pump())
        try:
            while True:
                if client_gone:
                    break
                try:
                    framed = await _read_raw_frame(reader)
                except TornFrameError:
                    self.metrics.counter("torn_frames").inc()
                    break
                except FrameError as exc:
                    self.metrics.counter("protocol_errors").inc()
                    await pending.put(
                        ("bytes", encode_frame(
                            OP_RESPONSE,
                            {"id": "", "status": STATUS_INVALID,
                             "error": str(exc)},
                        ))
                    )
                    break
                if framed is None:
                    break
                opcode, key, raw = framed
                if opcode in (OP_COLOR, OP_RECOLOR):
                    # Recolor frames carry a session-derived preamble key
                    # (see frames.session_routing_key), so a session's
                    # whole delta stream lands on one rendezvous-chosen
                    # worker; failover re-sends are safe because deltas
                    # carry absolute weights (idempotent) and the sibling
                    # replays the shared-spill journal before answering.
                    slot, entry = await self._pipeline_forward(key, raw, conns)
                    await pending.put(("read", slot, entry, key, raw))
                    continue
                response, shutdown = await self._handle_binary_op(opcode, raw)
                await pending.put(("bytes", response))
                if shutdown:
                    break
        finally:
            await pending.put(None)
            await pump_task
            for pool in (conns, fb_conns):
                for _reader, conn_writer, _port in pool.values():
                    conn_writer.close()

    async def _pipeline_forward(
        self, key: str, raw: bytes, conns: dict
    ) -> tuple[int, Optional[tuple]]:
        """Write ``raw`` to the best reachable worker; do not await a reply.

        Returns ``(slot, connection entry)`` for the pump's ordered read;
        ``(-1, None)`` when no worker accepted the write, in which case the
        read path runs the full failover walk from the raw bytes.
        """
        for slot in self._ranking(key):
            handle = self.pool.handles[slot]
            entry = conns.get(slot)
            if entry is not None and entry[2] != handle.port:
                entry[1].close()
                conns.pop(slot, None)
                entry = None
            try:
                if entry is None:
                    upstream_reader, upstream_writer = await asyncio.open_connection(
                        handle.host, handle.port, limit=MAX_MESSAGE_BYTES
                    )
                    entry = (upstream_reader, upstream_writer, handle.port)
                    conns[slot] = entry
                entry[1].write(raw)
                await entry[1].drain()
                return slot, entry
            except (OSError, asyncio.TimeoutError):
                if conns.get(slot) is entry:
                    conns.pop(slot, None)
                if entry is not None:
                    entry[1].close()
        return -1, None

    async def _pipelined_response(
        self,
        slot: int,
        entry: Optional[tuple],
        key: str,
        raw: bytes,
        conns: dict,
        fb_conns: dict,
    ) -> bytes:
        """The ordered response for one pipelined forward (pump side).

        Reads from the exact connection the frame was written to; any
        mismatch or transport failure falls back to a fresh idempotent
        re-send through the request/response pool.
        """
        response: Optional[bytes] = None
        if entry is not None and conns.get(slot) is entry:
            try:
                async with frame_timeout(self.config.forward_timeout):
                    framed = await _read_raw_frame(entry[0])
                if framed is None:
                    raise ConnectionResetError("worker closed mid-request")
                response = framed[2]
            except (OSError, asyncio.TimeoutError, TornFrameError, FrameError):
                # Tear the connection down and let the failover walk decide
                # who serves the re-send (and who needs a restart) — the
                # sibling with the shared L2 tier beats waiting out a respawn.
                if conns.get(slot) is entry:
                    conns.pop(slot, None)
                entry[1].close()
                self.metrics.counter("router_failover").inc()
        if response is not None:
            self._routed_total.inc()
            self._routed_to[slot].inc()
            return response
        forwarded, error = await self._forward_raw(key, raw, fb_conns)
        if forwarded is not None:
            return forwarded
        return encode_frame(
            OP_RESPONSE,
            {
                "id": decode_frame(raw).request_id,
                "status": STATUS_ERROR,
                "error": f"all workers unreachable: {error}",
            },
        )

    async def _handle_binary_op(self, opcode: int, raw: bytes) -> tuple[bytes, bool]:
        if opcode == OP_HELLO:
            return encode_hello_ok("router"), False
        # Local ops: parse the (small) frame for its request id.
        try:
            frame = decode_frame(raw)
        except FrameError as exc:
            self.metrics.counter("protocol_errors").inc()
            return (
                encode_frame(
                    OP_RESPONSE,
                    {"id": "", "status": STATUS_INVALID, "error": str(exc)},
                ),
                False,
            )
        request_id = frame.request_id
        if opcode == OP_PING:
            return (
                encode_frame(
                    OP_RESPONSE,
                    {"id": request_id, "status": "ok", "op_echo": "ping"},
                ),
                False,
            )
        if opcode == OP_METRICS:
            snap = await self.snapshot()
            return (
                encode_frame(
                    OP_RESPONSE,
                    {"id": request_id, "status": "ok", "metrics": snap},
                ),
                False,
            )
        if opcode == OP_SHUTDOWN:
            self.request_shutdown()
            return (
                encode_frame(
                    OP_RESPONSE,
                    {"id": request_id, "status": "ok", "op_effect": "shutdown"},
                ),
                True,
            )
        self.metrics.counter("protocol_errors").inc()
        return (
            encode_frame(
                OP_RESPONSE,
                {
                    "id": request_id,
                    "status": STATUS_INVALID,
                    "error": f"unexpected opcode {opcode}",
                },
            ),
            False,
        )

    # ---------------------------------------------------------------- metrics
    async def _worker_snapshot(self, handle) -> Optional[dict]:
        """One worker's live snapshot with mergeable histogram state."""
        from repro.service.client import AsyncServiceClient, ServiceError

        client = AsyncServiceClient(
            handle.host, handle.port, timeout=self.config.forward_timeout
        )
        try:
            await client.connect()
            return await client.metrics(include_state=True)
        except (ServiceError, OSError, asyncio.TimeoutError):
            return None
        finally:
            await client.close()

    async def snapshot(self) -> dict[str, Any]:
        """Router counters + per-worker snapshots + folded fleet view."""
        per_worker: dict[str, Any] = {}
        mergeable: list[dict] = []
        for handle in self.pool.handles:
            snap = await self._worker_snapshot(handle)
            if snap is None:
                per_worker[handle.worker_id] = {
                    "alive": handle.alive(), "restarts": handle.restarts,
                    "error": "unreachable",
                }
                continue
            snap["worker"] = {
                "alive": True,
                "restarts": handle.restarts,
                "port": handle.port,
            }
            per_worker[handle.worker_id] = snap
            mergeable.append(snap)
        snap = self.metrics.snapshot()
        snap["router"] = {
            "workers": len(self.pool.handles),
            "worker_restarts": self.pool.total_restarts,
            "uptime_seconds": time.monotonic() - self._started_at,
            "spill_dir": self.pool.spill_dir,
        }
        snap["workers"] = per_worker
        snap["fleet"] = merge_snapshots(mergeable) if mergeable else {}
        # Cache hits are counted in the workers; surface the fleet-wide
        # total at top level for convenience.
        fleet_counters = snap["fleet"].get("counters", {})
        snap["counters"].setdefault(
            "fleet_cache_hits", fleet_counters.get("cache_hits", 0)
        )
        snap["server"] = {
            "worker_id": "router",
            "wire_protocols": list(WIRE_PROTOCOLS),
            **snap["router"],
        }
        return snap


async def run_router(config: RouterConfig, *, ready=None) -> None:
    """Start a router + pool and serve until a shutdown op (CLI entry)."""
    await _run_endpoint(ColoringRouter(config), ready)


class RouterThread(_EndpointThread):
    """A :class:`ColoringRouter` in a daemon thread.

    The multi-worker twin of :class:`~repro.service.server.ServerThread`,
    with the same start/stop/context-manager contract — benchmarks and
    tests drive binary multi-worker serving through this.
    """

    _endpoint_class = ColoringRouter
    _config_class = RouterConfig
    _name = "coloring-router"
    _start_timeout = 60.0

    @property
    def router(self) -> Optional[ColoringRouter]:
        return self.endpoint
