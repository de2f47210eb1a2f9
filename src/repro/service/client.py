"""The coloring service client: one asyncio core and a blocking facade.

:class:`AsyncServiceClient` is the only implementation of the client side
of the protocol: the hello handshake, the round trip, response reading,
the retry loop and every op, recolor session verbs included.  The load
generator and the router use it directly to keep many requests in flight
across connections.  :class:`ServiceClient` is a thin blocking facade for
the CLI, tests, tools and benchmarks: it owns one private event loop
(created on first use or in :meth:`ServiceClient.connect`, closed in
:meth:`ServiceClient.close`) and runs each call as one
``loop.run_until_complete(core.method(...))``.  The facade therefore must
not be called from a thread whose event loop is already running; async
code uses the core, or hands blocking work to a thread with
``asyncio.to_thread`` (as ``Router.stop`` does for ``WorkerPool.stop``).

Every connection opens with a ``hello`` frame (:mod:`repro.service.frames`)
that checks the server speaks this build's frame version; a reply that is
not such a frame fails the connection with a
:class:`ServiceConnectionError`.  Responses decode to
:class:`ColorResponse` / :class:`RecolorResponse` objects.
Service-level outcomes (``error``, ``timeout``, ``overloaded``…) are
reported in the response ``status`` so callers can count and retry
without exception plumbing.  Transport failures — a dropped TCP
connection, a refused reconnect, a timeout — are wrapped into a typed
:class:`ServiceConnectionError` carrying the host, port, and request id
instead of leaking raw ``OSError`` subclasses.

Timeouts: the TCP connect, the hello reply, every write and every read
are each bounded by the client's ``timeout``.  A connection that fails is
aborted, never closed gracefully, so a peer that stops reading cannot
wedge the client on its unflushed send buffer.

The client optionally *self-heals*: constructed with a
:class:`~repro.resilience.retry.RetryPolicy`, a failed round trip aborts
the dead connection, backs off (exponential + seeded jitter), reconnects,
and re-sends — safe because every request is content-addressed and
idempotent: re-asking for the same coloring returns the same bits, at worst
re-hitting the server's result cache.  ``retries_used`` counts the budget
spent.

Chaos hooks: each round-trip attempt passes through the ``client.send`` /
``client.recv`` fault sites (:mod:`repro.resilience.faults`) with token
``"<request-id>#<attempt>"`` — ``drop`` severs the connection before the
write or before the read, ``partial`` sends a torn frame then severs,
``slow`` delays the attempt.
"""

from __future__ import annotations

import asyncio
import functools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.resilience.faults import draw
from repro.resilience.retry import RetryPolicy
from repro.service.frames import (
    FRAME_VERSION,
    OP_METRICS,
    OP_PING,
    OP_SHUTDOWN,
    FrameError,
    TornFrameError,
    encode_color_request,
    encode_frame,
    encode_hello,
    encode_recolor_request,
    frame_timeout,
    read_frame_async,
    response_to_message,
)
from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    STATUS_INVALID,
    STATUS_OK,
    UNKNOWN_SESSION_CODE,
    ColorRequest,
    RecolorRequest,
)


class ServiceError(RuntimeError):
    """Transport or framing failure talking to the service."""


class ServiceConnectionError(ServiceError):
    """A broken, refused, or timed-out connection to the service.

    Carries :attr:`host`, :attr:`port`, and the :attr:`request_id` in
    flight when the transport failed, so callers can log and retry without
    parsing message strings.
    """

    def __init__(self, message: str, *, host: str, port: int, request_id: str = ""):
        detail = f"{message} (server {host}:{port}"
        if request_id:
            detail += f", request {request_id!r}"
        detail += ")"
        super().__init__(detail)
        self.host = host
        self.port = port
        self.request_id = request_id


@dataclass(frozen=True)
class ColorResponse:
    """One decoded ``color`` response.

    ``starts`` is reshaped to the request's grid shape; ``latency`` is the
    client-side wall time of the round trip in seconds.
    """

    status: str
    starts: Optional[np.ndarray] = None
    maxcolor: Optional[int] = None
    source: str = ""
    compute_ms: float = 0.0
    total_ms: float = 0.0
    batch_size: int = 0
    error: Optional[str] = None
    latency: float = 0.0
    request_id: str = ""
    worker: str = ""  # identity of the worker that served the response
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def cached(self) -> bool:
        """Whether the result was served without a fresh computation."""
        return self.source in ("cache", "coalesced")


def _decode_color_response(
    message: dict[str, Any], shape: tuple[int, ...], latency: float
) -> ColorResponse:
    starts = None
    if message.get("starts") is not None:
        starts = np.asarray(message["starts"], dtype=np.int64).reshape(shape)
    return ColorResponse(
        status=str(message.get("status", "error")),
        starts=starts,
        maxcolor=message.get("maxcolor"),
        source=str(message.get("source", "")),
        compute_ms=float(message.get("compute_ms", 0.0)),
        total_ms=float(message.get("total_ms", 0.0)),
        batch_size=int(message.get("batch_size", 0)),
        error=message.get("error"),
        latency=latency,
        request_id=str(message.get("id", "")),
        worker=str(message.get("worker", "")),
        raw=message,
    )


@dataclass(frozen=True)
class RecolorResponse:
    """One decoded ``recolor`` response (seed or delta form).

    A seed answer carries the grid-shaped ``starts``; a delta answer
    carries the sparse ``changed_idx`` / ``changed_starts`` pair plus the
    server's delta provenance in ``recolor`` (cells dirtied, recomputed,
    changed, fallback reason...).  An unknown/expired session surfaces as
    ``status == "invalid"`` with :attr:`unknown_session` true — a state
    miss the caller (or :meth:`ServiceClient.recolor_delta` itself, via
    ``reseed=True``) recovers from by re-seeding.
    """

    status: str
    session: str = ""
    mode: str = ""  # "seed" | "incremental" | "fallback"
    starts: Optional[np.ndarray] = None
    changed_idx: Optional[np.ndarray] = None
    changed_starts: Optional[np.ndarray] = None
    maxcolor: Optional[int] = None
    recolor: dict = field(default_factory=dict)
    error: Optional[str] = None
    code: str = ""
    latency: float = 0.0
    request_id: str = ""
    worker: str = ""
    recovered: bool = False  # server rebuilt the session by journal replay
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def unknown_session(self) -> bool:
        return self.status == STATUS_INVALID and self.code == UNKNOWN_SESSION_CODE


@dataclass
class _SessionMirror:
    """The client's local copy of one server-held recolor session.

    Kept in lock-step with the server by applying each acknowledged delta,
    it is what makes recovery cheap: on an ``unknown-session`` answer the
    client re-seeds from the mirror instead of refetching anything.
    """

    algorithm: str
    weights: np.ndarray
    starts: np.ndarray


def _decode_recolor_response(
    message: dict[str, Any],
    shape: Optional[tuple[int, ...]],
    latency: float,
) -> RecolorResponse:
    starts = None
    if message.get("starts") is not None:
        starts = np.asarray(message["starts"], dtype=np.int64)
        if shape is not None:
            starts = starts.reshape(shape)
    changed_idx = changed_starts = None
    if message.get("changed_idx") is not None:
        changed_idx = np.asarray(message["changed_idx"], dtype=np.int64)
        changed_starts = np.asarray(message["changed_starts"], dtype=np.int64)
    return RecolorResponse(
        status=str(message.get("status", "error")),
        session=str(message.get("session", "")),
        mode=str(message.get("mode", "")),
        starts=starts,
        changed_idx=changed_idx,
        changed_starts=changed_starts,
        maxcolor=message.get("maxcolor"),
        recolor=message.get("recolor") or {},
        error=message.get("error"),
        code=str(message.get("code", "")),
        latency=latency,
        request_id=str(message.get("id", "")),
        worker=str(message.get("worker", "")),
        recovered=bool(message.get("recovered", False)),
        raw=message,
    )


#: Transport-level exceptions wrapped into :class:`ServiceConnectionError`.
#: ``TimeoutError`` and the ``Connection*`` family are ``OSError``
#: subclasses; ``asyncio.TimeoutError`` is separate before 3.11.
_TRANSPORT_ERRORS = (OSError, asyncio.TimeoutError, TimeoutError)

#: Bounded budget for the last-resort mirror re-seed loop of
#: :meth:`AsyncServiceClient.recolor_delta`.  One attempt loses the race
#: against a worker restart window (the re-seeded session dies with the next
#: crash before the delta lands); three attempts with backoff rides it out.
RESEED_ATTEMPTS = 3

#: Base delay (seconds) of the re-seed loop's jittered exponential backoff.
RESEED_BACKOFF = 0.05


class PreparedColorRequest:
    """A color request encoded once, sendable many times.

    The interactive STKDE pattern re-requests the same few grids over and
    over; re-canonicalizing, re-hashing, and re-serializing an unchanged
    grid on every send is pure waste.  ``prepare_color_request`` pays those
    costs once — the frame is encoded lazily on first use — and
    :meth:`AsyncServiceClient.color_prepared` then sends pre-built bytes.
    Responses decode exactly as for :meth:`AsyncServiceClient.color`; the
    server cannot tell the difference.
    """

    __slots__ = ("request", "_frame")

    def __init__(self, request: ColorRequest):
        self.request = request
        self._frame: Optional[bytes] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.request.shape

    @property
    def request_id(self) -> str:
        return self.request.request_id

    @property
    def key(self) -> str:
        return self.request.key

    def frame(self) -> bytes:
        if self._frame is None:
            self._frame = encode_color_request(self.request)
        return self._frame


def prepare_color_request(
    weights,
    algorithm: str = "BDP",
    *,
    fast: Optional[bool] = None,
    validate: bool = False,
    timeout: Optional[float] = None,
    request_id: str = "",
    tiles: Optional[tuple[int, ...]] = None,
) -> PreparedColorRequest:
    """Build and pre-encode a color request for repeated sending.

    Client-independent: one prepared request can be sent through any
    number of clients, blocking or asyncio.
    """
    return PreparedColorRequest(ColorRequest(
        weights=np.ascontiguousarray(weights, dtype=np.int64),
        algorithm=algorithm,
        fast=fast,
        validate=validate,
        timeout=timeout,
        request_id=request_id,
        tiled=tiles is not None,
        tile_shape=tuple(int(t) for t in tiles) if tiles is not None else None,
    ))


class AsyncServiceClient:
    """The service client: one asyncio connection, one request in flight.

    ``retry`` enables transparent reconnect-and-retry of failed round trips
    (see the module docstring); ``retry_seed`` seeds the backoff jitter so
    chaos runs stay reproducible.  :meth:`color_pipelined` is the one
    exception to one-request-in-flight: a burst of prepared requests
    written before any response is read.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 60.0,
        *,
        retry: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
        wire: str = "binary",
    ):
        if wire != "binary":  # frames are the only wire; callers may name it
            raise ValueError(f"wire must be 'binary', got {wire!r}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self.retries_used = 0
        self.server_worker_id = ""  # from the hello reply
        self._rng = random.Random(retry_seed)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._recolor_mirrors: dict[str, _SessionMirror] = {}
        self.reseeds_used = 0  # mirror re-seed attempts (last-resort path)

    # -------------------------------------------------------------- transport
    async def connect(self) -> "AsyncServiceClient":
        async with frame_timeout(self.timeout):
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=MAX_MESSAGE_BYTES
            )
        await self._hello()
        return self

    async def _hello(self) -> None:
        """Check the server speaks this build's frame version.

        Anything but a ``response`` frame listing :data:`FRAME_VERSION` —
        other bytes, a closed connection, a timeout — is a
        :class:`ServiceConnectionError` with request id ``"hello"``.
        """
        assert self._reader is not None
        try:
            await self._write(encode_hello())
            async with frame_timeout(self.timeout):
                frame = await read_frame_async(self._reader)
        except (FrameError, *_TRANSPORT_ERRORS) as exc:
            raise self._connection_error(
                f"hello failed: {type(exc).__name__}: {exc}", "hello"
            ) from exc
        header = frame.header if frame is not None else {}
        if header.get("status") != STATUS_OK or FRAME_VERSION not in header.get(
            "frames", ()
        ):
            raise self._connection_error(
                f"server does not speak frames/v{FRAME_VERSION}", "hello"
            )
        self.server_worker_id = str(header.get("worker_id", ""))

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is None:
            return
        writer.close()
        try:
            async with frame_timeout(self.timeout):
                await writer.wait_closed()
        except _TRANSPORT_ERRORS:
            writer.transport.abort()  # the peer never drained our buffer

    async def __aenter__(self) -> "AsyncServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    def _connection_error(
        self, message: str, request_id: str
    ) -> ServiceConnectionError:
        # Abort, never close gracefully: a dead connection must not be
        # reused by the next attempt, and a peer that stopped reading
        # must not hold us on the unflushed send buffer.
        if self._writer is not None:
            self._writer.transport.abort()
        self._reader = self._writer = None
        return ServiceConnectionError(
            message, host=self.host, port=self.port, request_id=request_id
        )

    async def _write(self, data: bytes) -> None:
        """Send ``data``; the flush is bounded by ``timeout``."""
        assert self._writer is not None
        self._writer.write(data)
        async with frame_timeout(self.timeout):
            await self._writer.drain()

    async def _roundtrip(
        self, payload: bytes, request_id: str = "", fault_token: str = ""
    ) -> dict[str, Any]:
        try:
            if self._writer is None:
                await self.connect()
            fault = draw("client.send", fault_token)
            if fault is not None:
                if fault.kind == "partial":
                    await self._write(payload[: max(1, len(payload) // 2)])
                    raise BrokenPipeError("injected partial write")
                if fault.kind == "drop":
                    raise ConnectionResetError("injected connection drop before send")
                if fault.kind == "slow":
                    await asyncio.sleep(fault.delay)
            await self._write(payload)
            fault = draw("client.recv", fault_token)
            if fault is not None:
                if fault.kind == "drop":
                    raise ConnectionResetError("injected connection drop before read")
                if fault.kind == "slow":
                    await asyncio.sleep(fault.delay)
            async with frame_timeout(self.timeout):
                return await self._read_response(request_id)
        except _TRANSPORT_ERRORS as exc:
            raise self._connection_error(
                f"{type(exc).__name__}: {exc}", request_id
            ) from exc

    async def _read_response(self, request_id: str) -> dict[str, Any]:
        """One response frame, as a message dict.

        A torn frame or a closed connection is a retryable
        :class:`ServiceConnectionError` (the server died mid-send, and
        content-addressed requests are idempotent); an undecodable one is
        a :class:`ServiceError`.  The caller bounds the read.
        """
        assert self._reader is not None
        try:
            frame = await read_frame_async(self._reader)
        except TornFrameError as exc:
            raise self._connection_error(
                f"torn response frame: {exc}", request_id
            ) from None
        except FrameError as exc:
            raise ServiceError(f"bad response frame: {exc}") from None
        if frame is None:
            raise self._connection_error("connection closed by server", request_id)
        return response_to_message(frame)

    async def _call(
        self, payload: bytes, op: str, request_id: str = ""
    ) -> dict[str, Any]:
        """One logical round trip, retried under the client's policy."""
        attempt = 0
        while True:
            token = f"{request_id or op}#{attempt}"
            try:
                return await self._roundtrip(payload, request_id, token)
            except ServiceConnectionError:
                if self.retry is None or not self.retry.should_retry(attempt):
                    raise
                self.retries_used += 1
                await asyncio.sleep(self.retry.delay(attempt, self._rng))
                attempt += 1

    # -------------------------------------------------------------------- ops
    async def ping(self) -> float:
        """Round-trip a ping; returns the latency in seconds."""
        t0 = time.perf_counter()
        response = await self._call(
            encode_frame(OP_PING, {"id": "ping"}), "ping", "ping"
        )
        if response.get("status") != STATUS_OK:
            raise ServiceError(f"ping failed: {response}")
        return time.perf_counter() - t0

    async def color(
        self,
        weights,
        algorithm: str = "BDP",
        *,
        fast: Optional[bool] = None,
        validate: bool = False,
        timeout: Optional[float] = None,
        request_id: str = "",
        tiles: Optional[tuple[int, ...]] = None,
    ) -> ColorResponse:
        """Request a coloring; returns a :class:`ColorResponse`.

        ``tiles`` asks the server to run the request through the
        out-of-core tiler with that tile shape (GLL only; the coloring is
        bit-identical to a monolithic request for the same grid).
        """
        return await self.color_prepared(prepare_color_request(
            weights, algorithm, fast=fast, validate=validate, timeout=timeout,
            request_id=request_id, tiles=tiles,
        ))

    async def color_prepared(self, prepared: PreparedColorRequest) -> ColorResponse:
        """Send a :func:`prepare_color_request` product; decode the reply."""
        t0 = time.perf_counter()
        message = await self._call(
            prepared.frame(), "color", prepared.request_id
        )
        return _decode_color_response(
            message, prepared.shape, time.perf_counter() - t0
        )

    async def color_pipelined(
        self, prepared: Sequence[PreparedColorRequest]
    ) -> list[ColorResponse]:
        """Send a burst of prepared requests before reading any response.

        The server — and the router in front of a worker pool — processes
        each connection's frames strictly in order, so responses come back
        in request order and one write burst plus ``n`` ordered reads
        amortizes the per-request event-loop round trip.  Latency in each
        :class:`ColorResponse` is measured from the start of the burst, and
        one shared deadline of ``self.timeout`` covers all the reads (a
        per-response timer at thousands of responses per second is real
        CPU).  There is no mid-burst retry: a transport failure or a torn
        frame voids the whole burst and aborts the connection.
        """
        if not prepared:
            return []
        try:
            if self._writer is None:
                await self.connect()
            t0 = time.perf_counter()
            await self._write(b"".join(p.frame() for p in prepared))
            responses: list[ColorResponse] = []
            async with frame_timeout(self.timeout):
                for item in prepared:
                    message = await self._read_response(item.request_id)
                    responses.append(
                        _decode_color_response(
                            message, item.shape, time.perf_counter() - t0
                        )
                    )
            return responses
        except _TRANSPORT_ERRORS as exc:
            raise self._connection_error(
                f"{type(exc).__name__}: {exc}", prepared[0].request_id
            ) from exc

    # ------------------------------------------------------ recolor sessions
    async def recolor_open(
        self,
        session: str,
        weights,
        algorithm: str = "GLL",
        *,
        request_id: str = "",
    ) -> RecolorResponse:
        """Seed (or re-seed) a server-held recolor session.

        The server colors ``weights`` from scratch, stores the grid under
        ``session``, and returns the full starts; the client keeps a local
        mirror so later deltas can verify and recover without refetching.
        Re-seeding an existing session is idempotent.
        """
        arr = np.ascontiguousarray(weights, dtype=np.int64)
        request = RecolorRequest(
            session=session,
            request_id=request_id or f"{session}/seed",
            weights=arr,
            algorithm=algorithm,
        )
        t0 = time.perf_counter()
        message = await self._call(
            encode_recolor_request(request), "recolor", request.request_id
        )
        response = _decode_recolor_response(
            message, tuple(arr.shape), time.perf_counter() - t0
        )
        if response.ok and response.starts is not None:
            self._recolor_mirrors[session] = _SessionMirror(
                algorithm=algorithm,
                weights=arr.copy(),
                starts=response.starts.copy(),
            )
        return response

    async def recolor_delta(
        self,
        session: str,
        idx,
        new_weights,
        *,
        request_id: str = "",
        reseed: bool = True,
    ) -> RecolorResponse:
        """Stream one sparse weight delta into a seeded session.

        ``idx`` are flat C-order cell indices, ``new_weights`` their
        *absolute* new weights — absolute so a delta re-sent after a
        connection loss or an injected server error is idempotent.

        Recovery order on an ``unknown-session`` answer: the *server* gets
        the first shot — a worker with a spill directory replays the session's
        journal before ever answering unknown-session (``recovered: true``
        rides on the response), so this client usually never sees one.
        Only when the server genuinely has nothing (no spill directory,
        journal gone) does ``reseed=True`` fall back to re-seeding from the local
        mirror — a bounded loop of :data:`RESEED_ATTEMPTS` tries with
        jittered exponential backoff, because a single immediate re-send
        loses the race against a worker restart window.  Attempts are
        counted in :attr:`reseeds_used`.

        The mirror is updated from each acknowledged delta's changed cells.
        When the delta's round trip needed a retry, the first application
        may have landed before its reply was lost, and the re-send then
        reports none of its changed cells; the mirror is refreshed by
        re-seeding from its (updated) weights instead.  That refresh is
        covered by :attr:`retries_used`, not :attr:`reseeds_used`; if it
        fails, the mirror is dropped rather than left stale, and
        :meth:`recolor_state` returns ``None``.
        """
        mirror = self._recolor_mirrors.get(session)
        idx_arr = np.asarray(idx, dtype=np.int64).ravel()
        new_arr = np.asarray(new_weights, dtype=np.int64).ravel()
        request = RecolorRequest(
            session=session,
            request_id=request_id or f"{session}/delta",
            delta_idx=idx_arr,
            delta_weights=new_arr,
        )
        retries_before = self.retries_used
        t0 = time.perf_counter()
        message = await self._call(
            encode_recolor_request(request), "recolor", request.request_id
        )
        response = _decode_recolor_response(
            message, None, time.perf_counter() - t0
        )
        if response.unknown_session and reseed and mirror is not None:
            for attempt in range(RESEED_ATTEMPTS):
                self.reseeds_used += 1
                if attempt:
                    # Jittered exponential backoff: the unknown-session
                    # answer may come from a worker that is mid-restart
                    # (or a sibling that has not seen the journal yet) —
                    # immediate re-seeds lose that race.
                    await asyncio.sleep(
                        RESEED_BACKOFF
                        * (2**attempt)
                        * (0.5 + self._rng.random())
                    )
                seeded = await self.recolor_open(
                    session, mirror.weights, mirror.algorithm
                )
                if not seeded.ok:
                    continue
                retry = await self.recolor_delta(
                    session, idx_arr, new_arr,
                    request_id=request.request_id, reseed=False,
                )
                if not retry.unknown_session:
                    return retry
                response = retry
            return response
        if response.ok and mirror is not None:
            mirror.weights.ravel()[idx_arr] = new_arr
            if response.changed_idx is not None:
                mirror.starts.ravel()[response.changed_idx] = (
                    response.changed_starts
                )
            if self.retries_used != retries_before:
                # The changed cells of a lost first application are
                # unknown: re-seed, which rebuilds the mirror only on ok.
                del self._recolor_mirrors[session]
                await self.recolor_open(
                    session, mirror.weights, mirror.algorithm,
                    request_id=f"{request.request_id}/refresh",
                )
        return response

    def recolor_state(
        self, session: str
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """The mirror's ``(weights, starts)`` for a session, or ``None``."""
        mirror = self._recolor_mirrors.get(session)
        if mirror is None:
            return None
        return mirror.weights, mirror.starts

    async def metrics(self, *, include_state: bool = False) -> dict[str, Any]:
        """The server's metrics snapshot (``include_state`` adds mergeable
        histogram state, the form ``merge_snapshots`` needs)."""
        header: dict[str, Any] = {"id": "metrics"}
        if include_state:
            header["state"] = True
        response = await self._call(
            encode_frame(OP_METRICS, header), "metrics", "metrics"
        )
        if response.get("status") != STATUS_OK:
            raise ServiceError(f"metrics failed: {response}")
        return response["metrics"]

    async def shutdown(self) -> None:
        """Ask the server to drain and stop (never retried — not idempotent
        to wait on: the server may be gone before a response arrives)."""
        await self._roundtrip(
            encode_frame(OP_SHUTDOWN, {"id": "shutdown"}), "shutdown"
        )


def _core_attribute(name: str) -> property:
    """A :class:`ServiceClient` attribute that reads and writes the core's."""
    return property(
        lambda self: getattr(self._core, name),
        lambda self, value: setattr(self._core, name, value),
    )


def _blocking(name: str):
    """A :class:`ServiceClient` method that runs the core's coroutine."""
    core_method = getattr(AsyncServiceClient, name)

    @functools.wraps(core_method)
    def method(self, *args, **kwargs):
        return self._run(core_method(self._core, *args, **kwargs))

    return method


class ServiceClient:
    """Blocking facade over :class:`AsyncServiceClient`.

    Same constructor and ops as the core, minus
    :meth:`~AsyncServiceClient.color_pipelined`; the public attributes below
    read and write the core's.  Each call runs the core's
    coroutine to completion on a private event loop, so it must not be
    made from a thread whose event loop is already running (see the module
    docstring).
    """

    host = _core_attribute("host")
    port = _core_attribute("port")
    timeout = _core_attribute("timeout")
    retry = _core_attribute("retry")
    server_worker_id = _core_attribute("server_worker_id")
    retries_used = _core_attribute("retries_used")
    reseeds_used = _core_attribute("reseeds_used")

    ping = _blocking("ping")
    color = _blocking("color")
    color_prepared = _blocking("color_prepared")
    recolor_open = _blocking("recolor_open")
    recolor_delta = _blocking("recolor_delta")
    metrics = _blocking("metrics")
    shutdown = _blocking("shutdown")

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 60.0,
        *,
        retry: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
        wire: str = "binary",
    ):
        self._core = AsyncServiceClient(
            host, port, timeout, retry=retry, retry_seed=retry_seed, wire=wire
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def _run(self, coro):
        """Run one core coroutine to completion on the private loop."""
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        try:
            return self._loop.run_until_complete(coro)
        except RuntimeError:
            coro.close()  # never started if a loop already runs here
            raise

    def connect(self) -> "ServiceClient":
        try:
            self._run(self._core.connect())
        except BaseException:
            self.close()  # a failed connect leaves no loop behind
            raise
        return self

    def close(self) -> None:
        if self._loop is None:
            return
        try:
            self._loop.run_until_complete(self._core.close())
        finally:
            self._loop.close()
            self._loop = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def recolor_state(
        self, session: str
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """The mirror's ``(weights, starts)`` for a session, or ``None``."""
        return self._core.recolor_state(session)
