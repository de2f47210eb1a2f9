"""Binary wire frames: the one transport of the coloring service.

A frame ships one message of the protocol vocabulary
(:mod:`repro.service.protocol`) with its bulk array data as raw
little-endian bytes and a fixed preamble the router can parse without
touching JSON at all.

Frame layout (all integers little-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       2     magic  0xA9 0x27  (the 9-pt / 27-pt stencils)
    2       1     frame version (currently 1)
    3       1     flags  (bit 0: one ``\\n`` byte follows the frame)
    4       1     opcode (hello/color/metrics/ping/shutdown/response)
    5       20    routing key: raw ``content_key`` digest bytes (zeros if n/a)
    25      4     header length H
    29      8     payload length P
    37      H     header: compact UTF-8 JSON object
    37+H    P     payload: raw array bytes (C-order ``<i8``)

The 37-byte preamble carries everything the accept/route front process
needs — opcode and routing key — so the router forwards frames without
decoding headers or weights.  The header is the message of the same
operation minus the bulk field (``weights`` on requests, ``starts`` on
responses), which lives in the payload instead.  Decoders build the array
straight off the payload and then run the header through the protocol's
field validation (:func:`~repro.service.protocol.request_from_fields`,
:func:`~repro.service.protocol.recolor_from_arrays`).

The hello
---------
A client opens every connection with a ``hello`` frame listing the frame
versions it speaks; the server answers with a ``response`` frame listing
its own and its ``worker_id``.  The hello is the frame-version check:
a reply that is not a frame, or that does not list this build's
:data:`FRAME_VERSION`, fails the connection.  The hello keeps its
fixed-size header and the trailing-newline flag, so its bytes never change.

Readers check the magic as soon as its two bytes arrive: a peer that
speaks anything else gets one ``invalid`` response frame and the
connection closes, without waiting for a full preamble.

Torn frames
-----------
A peer killed mid-frame is an expected event, not a stack trace:
truncation at any byte raises the typed :class:`TornFrameError` (a
:class:`FrameError`, itself a
:class:`~repro.service.protocol.ProtocolError`), which the server counts
in the ``torn_frames`` metric and treats as end-of-connection — mirroring
the torn-trailing-line tolerance of the JSONL run-log reader.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import struct
from typing import Any, NamedTuple, Optional

import numpy as np

from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_API_VERSION,
    ColorRequest,
    ProtocolError,
    RecolorRequest,
    ServedResult,
    check_api_version,
    recolor_from_arrays,
    request_from_fields,
)

#: First bytes of every frame; not valid UTF-8, so no text protocol's
#: opening bytes can pass for a frame.
FRAME_MAGIC = b"\xa9\x27"

#: The frame format version this build speaks.
FRAME_VERSION = 1

#: All frame versions this build can decode (checked by the ``hello``).
SUPPORTED_FRAME_VERSIONS = (1,)

#: The protocol list servers, routers and ``serve --version`` advertise.
WIRE_PROTOCOLS = tuple(f"frames/v{v}" for v in SUPPORTED_FRAME_VERSIONS)

#: Flag bit: one ``\n`` byte follows the frame (set on hello frames only;
#: readers skip it).
FLAG_TRAILING_NEWLINE = 0x01

#: Opcodes (one byte in the preamble; ``OP_RESPONSE`` covers every reply).
OP_HELLO = 0
OP_COLOR = 1
OP_METRICS = 2
OP_PING = 3
OP_SHUTDOWN = 4
OP_RESPONSE = 5
OP_RECOLOR = 6

_OPCODES = (
    OP_HELLO,
    OP_COLOR,
    OP_METRICS,
    OP_PING,
    OP_SHUTDOWN,
    OP_RESPONSE,
    OP_RECOLOR,
)

#: Preamble: magic, version, flags, opcode, routing key, header len, payload len.
_PREAMBLE = struct.Struct("<2sBBB20sIQ")

#: Size of the fixed preamble in bytes.
PREAMBLE_SIZE = _PREAMBLE.size  # 37

#: Upper bound on the JSON header of one frame (the bulk data is payload).
MAX_HEADER_BYTES = 1 << 20

#: Raw-key length (hex ``content_key`` digests are 20 bytes / 40 hex chars).
KEY_SIZE = 20

_ZERO_KEY = b"\x00" * KEY_SIZE

#: Array dtype every payload uses (documented in headers as ``dtype``).
PAYLOAD_DTYPE = "<i8"


class FrameError(ProtocolError):
    """Bytes that do not parse as a valid frame (magic, version, bounds)."""


class TornFrameError(FrameError):
    """A frame truncated mid-read — the peer died or was killed mid-send."""


class Frame(NamedTuple):
    """One decoded frame: preamble fields plus header dict and raw payload."""

    opcode: int
    flags: int
    key: str  # hex routing key ("" when the preamble key is all zeros)
    header: dict
    payload: bytes

    @property
    def request_id(self) -> str:
        return str(self.header.get("id", ""))


def _key_bytes(key: str) -> bytes:
    if not key:
        return _ZERO_KEY
    raw = bytes.fromhex(key)
    if len(raw) != KEY_SIZE:
        raise FrameError(f"routing key must be {KEY_SIZE} bytes, got {len(raw)}")
    return raw


# ------------------------------------------------------------------- encoding
def encode_frame(
    opcode: int,
    header: dict[str, Any],
    payload: bytes = b"",
    *,
    key: str = "",
    flags: int = 0,
) -> bytes:
    """One wire-ready frame: preamble + JSON header + raw payload."""
    if opcode not in _OPCODES:
        raise FrameError(f"unknown opcode {opcode!r}")
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise FrameError(
            f"header of {len(header_bytes)} bytes exceeds the "
            f"{MAX_HEADER_BYTES} limit"
        )
    if len(payload) > MAX_MESSAGE_BYTES:
        raise FrameError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES} limit"
        )
    preamble = _PREAMBLE.pack(
        FRAME_MAGIC,
        FRAME_VERSION,
        flags,
        opcode,
        _key_bytes(key),
        len(header_bytes),
        len(payload),
    )
    tail = b"\n" if flags & FLAG_TRAILING_NEWLINE else b""
    return preamble + header_bytes + payload + tail


def encode_hello() -> bytes:
    """The client's opening frame: the frame versions it speaks.

    A fixed 64-byte header and the trailing-newline flag keep these bytes
    identical across releases; the raw bytes contain no ``0x0A`` except
    the trailing one.
    """
    header = {
        "op": "hello",
        "frames": list(SUPPORTED_FRAME_VERSIONS),
        "api": PROTOCOL_API_VERSION,
    }
    # Pad the header with spaces to a fixed 64 bytes: the header-length
    # field then never encodes to 0x0A, and JSON itself has no newlines.
    header_bytes = json.dumps(header, separators=(",", ":")).ljust(64).encode()
    preamble = _PREAMBLE.pack(
        FRAME_MAGIC, FRAME_VERSION, FLAG_TRAILING_NEWLINE, OP_HELLO,
        _ZERO_KEY, len(header_bytes), 0,
    )
    assert b"\n" not in preamble + header_bytes, "hello must be newline-free"
    return preamble + header_bytes + b"\n"


def encode_hello_ok(worker_id: str = "") -> bytes:
    """The server's hello reply: versions spoken plus identity."""
    header = {
        "status": "ok",
        "op_echo": "hello",
        "frames": list(SUPPORTED_FRAME_VERSIONS),
        "api": PROTOCOL_API_VERSION,
    }
    if worker_id:
        header["worker_id"] = worker_id
    return encode_frame(OP_RESPONSE, header)


def encode_color_request(request: ColorRequest) -> bytes:
    """A ``color`` frame: options in the header, raw weight bytes as payload.

    The preamble carries the request's content key so a router can route
    on it without decoding anything.
    """
    from repro.runtime.fingerprint import canonical_weights

    header: dict[str, Any] = {
        "api": PROTOCOL_API_VERSION,
        "op": "color",
        "id": request.request_id,
        "shape": list(request.shape),
        "algorithm": request.algorithm,
        "dtype": PAYLOAD_DTYPE,
    }
    if request.tiled:
        header["runtime"] = "tiled"
    elif request.fast is not None:
        header["runtime"] = "kernels" if request.fast else "reference"
    if request.tile_shape is not None:
        header["tiles"] = list(request.tile_shape)
    if request.validate:
        header["validate"] = True
    if request.timeout is not None:
        header["timeout_ms"] = request.timeout * 1000.0
    payload = canonical_weights(request.weights).tobytes()
    return encode_frame(OP_COLOR, header, payload, key=request.key)


def _check_dtype(header: dict) -> None:
    dtype = header.get("dtype", PAYLOAD_DTYPE)
    if dtype != PAYLOAD_DTYPE:
        raise ProtocolError(
            f"unsupported payload dtype {dtype!r} (this server speaks "
            f"{PAYLOAD_DTYPE!r})"
        )


def _payload_grid(frame: Frame) -> np.ndarray:
    """The header's ``shape`` and the payload as a weight grid, validated."""
    shape = frame.header.get("shape")
    if not isinstance(shape, list) or not all(
        isinstance(s, int) and s > 0 for s in shape
    ):
        raise ProtocolError("'shape' must be a list of positive integers")
    if len(shape) not in (2, 3):
        raise ProtocolError(f"expected a 2D or 3D shape, got {len(shape)} dims")
    expected = int(np.prod([int(s) for s in shape])) * 8
    if len(frame.payload) != expected:
        raise ProtocolError(
            f"expected {expected} payload bytes for shape {tuple(shape)}, "
            f"got {len(frame.payload)}"
        )
    # .copy() detaches from the network buffer and yields a writable,
    # C-contiguous array.
    return (
        np.frombuffer(frame.payload, dtype=PAYLOAD_DTYPE)
        .reshape(tuple(shape))
        .copy()
    )


def decode_color_request(frame: Frame) -> ColorRequest:
    """Validate and decode a ``color`` frame into a :class:`ColorRequest`.

    Builds the weight array straight off the payload buffer, then runs the
    header through :func:`~repro.service.protocol.request_from_fields`.
    The content key is always recomputed from the weights — the preamble
    key is a routing hint, never trusted for cache identity.
    """
    check_api_version(frame.header)
    _check_dtype(frame.header)
    return request_from_fields(_payload_grid(frame), frame.header)


def session_routing_key(session: str) -> str:
    """The preamble routing key for a recolor session (hex, 20 bytes).

    ``color`` frames route by content key so identical grids land on one
    worker's cache; ``recolor`` ops must instead route by *session* — every
    seed and delta of one session has to reach the worker holding (or able
    to journal-recover) its state.  Hashing the client-chosen session id to
    the fixed :data:`KEY_SIZE` keeps arbitrary-length ids out of the
    preamble while the router's rendezvous ranking stays deterministic.
    """
    return hashlib.blake2b(session.encode(), digest_size=KEY_SIZE).hexdigest()


def encode_recolor_request(request: RecolorRequest) -> bytes:
    """A ``recolor`` frame, in either of the op's two forms.

    Seed form: the header carries ``shape`` + ``algorithm`` and the payload
    is the raw C-order weight bytes — byte-identical to a ``color``
    payload.  Delta form: the header carries ``"delta": K`` and the payload
    is ``K`` flat indices followed by ``K`` absolute new weights, both raw
    ``<i8``.

    Both forms stamp :func:`session_routing_key` into the preamble, so a
    router forwards the whole session to one rendezvous-chosen worker (and
    to the same sibling on failover, where journal replay picks it up).
    A delta answer may carry ``"recovered": true`` in its header when the
    serving worker rebuilt the session from its journal first.
    """
    header: dict[str, Any] = {
        "api": PROTOCOL_API_VERSION,
        "op": "recolor",
        "id": request.request_id,
        "session": request.session,
        "dtype": PAYLOAD_DTYPE,
    }
    if request.is_seed:
        header["shape"] = [int(s) for s in request.weights.shape]
        header["algorithm"] = request.algorithm
        payload = np.ascontiguousarray(
            request.weights, dtype=PAYLOAD_DTYPE
        ).tobytes()
    else:
        idx = np.ascontiguousarray(request.delta_idx, dtype=PAYLOAD_DTYPE)
        new = np.ascontiguousarray(request.delta_weights, dtype=PAYLOAD_DTYPE)
        header["delta"] = int(idx.size)
        payload = idx.tobytes() + new.tobytes()
    return encode_frame(
        OP_RECOLOR, header, payload, key=session_routing_key(request.session)
    )


def decode_recolor_request(frame: Frame) -> RecolorRequest:
    """Validate and decode a ``recolor`` frame (either form).

    The arrays come off the payload; the header fields are validated by
    :func:`~repro.service.protocol.recolor_from_arrays`.
    """
    header = frame.header
    check_api_version(header)
    _check_dtype(header)
    if "shape" in header:
        return recolor_from_arrays(header, weights=_payload_grid(frame))
    count = header.get("delta")
    if not isinstance(count, int) or count < 0:
        raise ProtocolError("'delta' must be the non-negative update count")
    if len(frame.payload) != count * 16:
        raise ProtocolError(
            f"expected {count * 16} payload bytes for a {count}-cell delta, "
            f"got {len(frame.payload)}"
        )
    flat = np.frombuffer(frame.payload, dtype=PAYLOAD_DTYPE)
    return recolor_from_arrays(
        header,
        delta_idx=flat[:count].copy(),
        delta_weights=flat[count:].copy(),
    )


def encode_recolor_result(
    header: dict[str, Any],
    *,
    starts: Optional[np.ndarray] = None,
    changed_idx: Optional[np.ndarray] = None,
    changed_starts: Optional[np.ndarray] = None,
) -> bytes:
    """A response frame for a recolor op.

    A seed answer ships the full ``starts`` as payload (the ordinary
    response shape); a delta answer ships ``changed_idx ++ changed_starts``
    with ``"changed": K`` in the header so
    :func:`response_to_message` can split the concatenation back apart.
    """
    header = dict(header)
    payload = b""
    if starts is not None:
        header["dtype"] = PAYLOAD_DTYPE
        payload = np.ascontiguousarray(
            np.asarray(starts).ravel(), dtype=PAYLOAD_DTYPE
        ).tobytes()
    elif changed_idx is not None:
        assert changed_starts is not None
        idx = np.ascontiguousarray(changed_idx, dtype=PAYLOAD_DTYPE)
        new = np.ascontiguousarray(changed_starts, dtype=PAYLOAD_DTYPE)
        header["dtype"] = PAYLOAD_DTYPE
        header["changed"] = int(idx.size)
        payload = idx.tobytes() + new.tobytes()
    return encode_frame(OP_RESPONSE, header, payload)


def encode_result(
    result: ServedResult,
    request_id: str,
    extra: Optional[dict[str, Any]] = None,
    *,
    key: str = "",
) -> bytes:
    """A ``response`` frame for one served result (starts as payload)."""
    header: dict[str, Any] = {"id": request_id, "status": result.status}
    payload = b""
    if result.ok:
        assert result.starts is not None
        starts = np.ascontiguousarray(
            np.asarray(result.starts).ravel(), dtype=PAYLOAD_DTYPE
        )
        payload = starts.tobytes()
        header["dtype"] = PAYLOAD_DTYPE
        header["maxcolor"] = int(result.maxcolor or 0)
        header["source"] = result.source
        header["compute_ms"] = result.compute_seconds * 1000.0
        header["batch_size"] = result.batch_size
    elif result.error:
        header["error"] = result.error
    if extra:
        header.update(extra)
    return encode_frame(OP_RESPONSE, header, payload, key=key)


def response_to_message(frame: Frame) -> dict[str, Any]:
    """A response frame as a message dict.

    The payload (if any) becomes a ``starts`` ndarray, which client code
    reshapes to the request's grid.  A recolor-delta
    response (``"changed": K`` in the header) instead splits its payload
    into ``changed_idx`` / ``changed_starts`` arrays of ``K`` values each.
    """
    message = dict(frame.header)
    if frame.payload:
        if len(frame.payload) % 8:
            raise FrameError(
                f"response payload of {len(frame.payload)} bytes is not a "
                "whole number of int64 values"
            )
        if "changed" in message:
            count = int(message["changed"])
            if len(frame.payload) != count * 16:
                raise FrameError(
                    f"changed-cells payload of {len(frame.payload)} bytes "
                    f"does not hold {count} (idx, start) pairs"
                )
            flat = np.frombuffer(frame.payload, dtype=PAYLOAD_DTYPE)
            message["changed_idx"] = flat[:count]
            message["changed_starts"] = flat[count:]
        else:
            message["starts"] = np.frombuffer(frame.payload, dtype=PAYLOAD_DTYPE)
    elif "changed" in message and int(message["changed"]) == 0:
        empty = np.empty(0, dtype=np.int64)
        message["changed_idx"] = empty
        message["changed_starts"] = empty
    return message


# ------------------------------------------------------------------- decoding
def decode_preamble(raw: bytes) -> tuple[int, int, int, str, int, int]:
    """``(version, flags, opcode, key_hex, header_len, payload_len)``.

    Raises :class:`FrameError` on a bad magic, unsupported version, unknown
    opcode, or out-of-bounds lengths.
    """
    if len(raw) != PREAMBLE_SIZE:
        raise TornFrameError(
            f"preamble truncated: {len(raw)} of {PREAMBLE_SIZE} bytes"
        )
    magic, version, flags, opcode, key_raw, header_len, payload_len = (
        _PREAMBLE.unpack(raw)
    )
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version not in SUPPORTED_FRAME_VERSIONS:
        raise FrameError(
            f"unsupported frame version {version} (this build speaks "
            f"{list(SUPPORTED_FRAME_VERSIONS)})"
        )
    if opcode not in _OPCODES:
        raise FrameError(f"unknown opcode {opcode}")
    if header_len > MAX_HEADER_BYTES:
        raise FrameError(
            f"header of {header_len} bytes exceeds the {MAX_HEADER_BYTES} limit"
        )
    if payload_len > MAX_MESSAGE_BYTES:
        raise FrameError(
            f"payload of {payload_len} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES} limit"
        )
    key = "" if key_raw == _ZERO_KEY else key_raw.hex()
    return version, flags, opcode, key, header_len, payload_len


def _parse_header(raw: bytes) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"malformed frame header: {exc}") from None
    if not isinstance(header, dict):
        raise FrameError("frame header must be a JSON object")
    return header


def decode_frame(raw: bytes) -> Frame:
    """Decode one complete frame from a byte string (tests, fuzzing)."""
    _version, flags, opcode, key, header_len, payload_len = decode_preamble(
        raw[:PREAMBLE_SIZE]
    )
    end = PREAMBLE_SIZE + header_len + payload_len
    if len(raw) < end:
        raise TornFrameError(
            f"frame truncated: {len(raw)} of {end} bytes"
        )
    header = _parse_header(raw[PREAMBLE_SIZE:PREAMBLE_SIZE + header_len])
    payload = raw[PREAMBLE_SIZE + header_len:end]
    return Frame(opcode, flags, key, header, payload)


async def read_preamble(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next frame's raw preamble, or ``None`` on a clean EOF.

    The magic is checked as soon as its two bytes arrive, so a peer that
    speaks anything but frames gets a :class:`FrameError` at once instead
    of a wait for 37 bytes it may never send.  EOF after at least one byte
    raises :class:`TornFrameError`.
    """
    try:
        magic = await reader.readexactly(len(FRAME_MAGIC))
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise TornFrameError(
            f"preamble truncated: {len(exc.partial)} of {PREAMBLE_SIZE} bytes"
        ) from None
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    try:
        return magic + await reader.readexactly(PREAMBLE_SIZE - len(magic))
    except asyncio.IncompleteReadError as exc:
        raise TornFrameError(
            f"preamble truncated: {len(magic) + len(exc.partial)} of "
            f"{PREAMBLE_SIZE} bytes"
        ) from None


async def read_frame_async(reader: asyncio.StreamReader) -> Optional[Frame]:
    """Read one frame from an asyncio stream.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`TornFrameError` on truncation anywhere else.
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
            f"frame body truncated ({len(exc.partial)} of "
            f"{exc.expected} bytes remaining)"
        ) from None
    header_raw = body[:header_len]
    payload = body[header_len : header_len + payload_len]
    return Frame(opcode, flags, key, _parse_header(header_raw), payload)


class frame_timeout:
    """``asyncio.timeout`` with a Python 3.10 fallback.

    The hot serving paths bound every frame read with a deadline;
    ``asyncio.wait_for`` wraps the awaitable in a fresh Task per call,
    which at thousands of frames per second is real CPU.  On 3.11+ this
    *is* ``asyncio.timeout``; on 3.10 a minimal cancellation-timer
    equivalent stands in (an external cancellation that races the timer
    within the window is reported as a timeout — acceptable for frame
    reads, where both unwind the connection the same way).
    """

    def __new__(cls, delay: Optional[float]):
        native = getattr(asyncio, "timeout", None)
        if native is not None:
            return native(delay)
        return super().__new__(cls)

    def __init__(self, delay: Optional[float]) -> None:
        self._delay = delay
        self._timer: Optional[asyncio.TimerHandle] = None
        self._task: Optional[asyncio.Task] = None
        self._fired = False

    async def __aenter__(self) -> "frame_timeout":
        self._task = asyncio.current_task()
        if self._delay is not None:
            self._timer = asyncio.get_running_loop().call_later(
                self._delay, self._fire
            )
        return self

    def _fire(self) -> None:
        self._fired = True
        assert self._task is not None
        self._task.cancel()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        if self._timer is not None:
            self._timer.cancel()
        if self._fired and exc_type is asyncio.CancelledError:
            raise TimeoutError from exc
        return False
