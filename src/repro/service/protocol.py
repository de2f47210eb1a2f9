"""Typed request/response protocol of the online coloring service.

Wire format: newline-delimited JSON (one message per line) over a stream
transport.  Every request carries an ``op`` plus an optional client-chosen
``id`` echoed back in the response; responses carry a ``status``:

========== ============================================================
``op``      meaning
========== ============================================================
``color``   color a weight grid with a registry algorithm
``recolor`` seed or delta-update a server-held recolor session
``metrics`` snapshot the server's metrics registry (+ cache/substrate)
``ping``    liveness probe
``shutdown`` ask the server to drain and stop (used by tests/CI)
========== ============================================================

``status`` is one of ``ok``, ``error`` (algorithm raised / unknown),
``invalid`` (malformed request), ``timeout`` (deadline expired), or
``overloaded`` (admission queue full — backpressure, retry later).

The ``recolor`` op has two forms sharing one decoder
(:func:`recolor_from_wire`): a **seed** (``session`` + ``shape`` +
``weights`` + ``algorithm`` — the server colors the grid, stores it under
the session id, and answers with the full starts) and a **delta**
(``session`` + ``delta: {idx, weights}`` — *absolute* new weights at flat
indices, so a retried delta is idempotent; the server patches the held
coloring through :mod:`repro.incremental` and answers with only the
changed cells).  A delta naming a session the server no longer holds is
answered ``invalid`` with ``code: "unknown-session"`` on the *open*
connection — it is a state miss, not a protocol breach, and the client
recovers by re-seeding.

Versioning
----------
Canonical request frames carry ``"api": 1`` (:data:`PROTOCOL_API_VERSION`)
and mirror :func:`repro.api.color`'s vocabulary: a top-level ``runtime``
(``"auto"`` / ``"kernels"`` / ``"reference"`` / ``"tiled"``), an optional
``tiles`` tile-shape hint routing the request through the out-of-core
tiler, and a top-level ``validate``.  Legacy frames — no ``api`` field,
``options.fast`` instead of ``runtime`` — are accepted unchanged forever;
an ``api`` value other than ``1`` is refused as ``invalid`` rather than
half-understood.  ``docs/service.md`` tabulates the mapping.

Content addressing
------------------
:func:`content_key` canonically hashes ``(stencil kind, grid shape, weight
bytes, algorithm)``.  Options that cannot change the resulting coloring —
``fast`` (kernels are bit-identical to the reference), ``validate``,
deadlines, request ids — are deliberately *excluded*, so a cache keyed by
:func:`content_key` serves every equivalent request regardless of how it was
phrased.  Weights are canonicalized to C-contiguous ``int64`` before
hashing, so lists, ``int32`` arrays, and Fortran-ordered arrays of equal
content collide (as they must).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.runtime.fingerprint import content_key

#: Upper bound on one encoded message line (guards the server's readline).
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: The canonical request-frame version this build speaks (``"api"`` field).
PROTOCOL_API_VERSION = 1

#: ``runtime`` values a canonical frame may carry, and the ``fast``
#: preference each maps onto (``"tiled"`` routes through the tiler instead).
_WIRE_RUNTIMES: dict[str, Optional[bool]] = {
    "auto": None,
    "kernels": True,
    "reference": False,
    "tiled": None,
}

#: Response statuses.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_INVALID = "invalid"
STATUS_TIMEOUT = "timeout"
STATUS_OVERLOADED = "overloaded"


class ProtocolError(ValueError):
    """A message that does not parse as a valid protocol frame."""


# content_key (imported above, re-exported for existing callers) moved to
# repro.runtime.fingerprint so the kernel substrate shares the same
# canonicalization; the digests are byte-identical, so spill files written
# by older servers still warm-start a new one.


@dataclass(frozen=True)
class ColorRequest:
    """One coloring request, decoded and validated.

    Attributes
    ----------
    weights:
        The 2D or 3D ``int64`` weight grid.
    algorithm:
        Registry name of the heuristic to run.
    fast:
        Kernel fast-path override forwarded to
        :func:`~repro.core.algorithms.registry.color_with` (``None`` follows
        the serving context's fast-path config).  Does not affect the coloring, only speed.
    validate:
        Run :meth:`~repro.core.coloring.Coloring.check` on the result before
        serving it.
    timeout:
        Client deadline in seconds from admission; expired requests are
        answered ``timeout`` without being computed.
    request_id:
        Client-chosen correlation id, echoed verbatim.
    tiled:
        Route through the out-of-core tiler (:mod:`repro.tiling`) instead
        of the monolithic kernels.  GLL only; the result is bit-identical,
        so tiled and monolithic requests share cache entries by design.
    tile_shape:
        Optional per-axis tile-shape hint for tiled requests (the
        ``tiles`` wire field); ``None`` lets the server's config derive it.
    """

    weights: np.ndarray
    algorithm: str
    fast: Optional[bool] = None
    validate: bool = False
    timeout: Optional[float] = None
    request_id: str = ""
    tiled: bool = False
    tile_shape: Optional[tuple[int, ...]] = None
    key: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.key:
            object.__setattr__(self, "key", content_key(self.weights, self.algorithm))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(int(s) for s in self.weights.shape)

    @property
    def group(self) -> tuple:
        """The micro-batching group: same shape, same algorithm."""
        return (self.shape, self.algorithm)


#: Wire error code answered to a delta whose session the server lost.
UNKNOWN_SESSION_CODE = "unknown-session"


@dataclass(frozen=True)
class RecolorRequest:
    """One decoded ``recolor`` op, in either of its two forms.

    *Seed* form: ``weights`` is the full grid (``algorithm`` names the
    heuristic); *delta* form: ``delta_idx`` / ``delta_weights`` carry the
    sparse update — absolute new weights at flat C-order indices, so
    re-sending the same delta after a connection loss is harmless.
    """

    session: str
    request_id: str = ""
    weights: Optional[np.ndarray] = None  # seed form: the full new grid
    algorithm: str = "GLL"
    delta_idx: Optional[np.ndarray] = None  # delta form: flat indices
    delta_weights: Optional[np.ndarray] = None  # absolute new weights

    @property
    def is_seed(self) -> bool:
        return self.weights is not None


def _decode_grid(message: dict[str, Any]) -> np.ndarray:
    """The ``shape`` + flat ``weights`` fields as a grid array (shared by
    the ``color`` and seed-``recolor`` decoders)."""
    shape = message.get("shape")
    if not isinstance(shape, list) or not all(
        isinstance(s, int) and s > 0 for s in shape
    ):
        raise ProtocolError("'shape' must be a list of positive integers")
    if len(shape) not in (2, 3):
        raise ProtocolError(f"expected a 2D or 3D shape, got {len(shape)} dims")
    weights = message.get("weights")
    if not isinstance(weights, list):
        raise ProtocolError("'weights' must be a flat list of integers")
    expected = int(np.prod([int(s) for s in shape]))
    if len(weights) != expected:
        raise ProtocolError(
            f"expected {expected} weights for shape {tuple(shape)}, got {len(weights)}"
        )
    try:
        return np.asarray(weights, dtype=np.int64).reshape(tuple(shape))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"weights are not int64 grid data: {exc}") from None


def recolor_session_fields(message: dict[str, Any]) -> tuple[str, str]:
    """``(session, request_id)`` of a recolor message, validated.

    Shared by the NDJSON decoder and the binary frame decoder so both
    wires enforce the same session-id discipline.
    """
    api = message.get("api")
    if api is not None and api != PROTOCOL_API_VERSION:
        raise ProtocolError(
            f"unsupported api version {api!r} (this server speaks "
            f"{PROTOCOL_API_VERSION})"
        )
    session = message.get("session")
    if not isinstance(session, str) or not session:
        raise ProtocolError("'session' must be a non-empty string")
    request_id = message.get("id", "")
    if not isinstance(request_id, str):
        request_id = str(request_id)
    return session, request_id


def recolor_from_arrays(
    message: dict[str, Any],
    *,
    weights: Optional[np.ndarray] = None,
    delta_idx: Optional[np.ndarray] = None,
    delta_weights: Optional[np.ndarray] = None,
) -> RecolorRequest:
    """Build a :class:`RecolorRequest` from decoded arrays + header fields.

    The back half shared by both wires — the NDJSON decoder builds the
    arrays from JSON lists, the binary decoder from the payload buffer —
    so a recolor op means exactly the same thing on either wire.
    """
    session, request_id = recolor_session_fields(message)
    if weights is not None:
        if delta_idx is not None or delta_weights is not None:
            raise ProtocolError("a recolor op is a seed or a delta, not both")
        if weights.size and weights.min() < 0:
            raise ProtocolError("weights must be non-negative")
        algorithm = message.get("algorithm", "GLL")
        if not isinstance(algorithm, str) or not algorithm:
            raise ProtocolError("'algorithm' must be a non-empty string")
        return RecolorRequest(
            session=session,
            request_id=request_id,
            weights=weights,
            algorithm=algorithm,
        )
    if delta_idx is None or delta_weights is None:
        raise ProtocolError(
            "recolor needs 'weights' (seed form) or 'delta' (delta form)"
        )
    if delta_idx.shape != delta_weights.shape or delta_idx.ndim != 1:
        raise ProtocolError("delta idx and weights must be equal-length vectors")
    if delta_idx.size and delta_idx.min() < 0:
        raise ProtocolError("delta indices must be non-negative")
    if delta_weights.size and delta_weights.min() < 0:
        raise ProtocolError("delta weights must be non-negative")
    return RecolorRequest(
        session=session,
        request_id=request_id,
        delta_idx=delta_idx,
        delta_weights=delta_weights,
    )


def recolor_from_wire(message: dict[str, Any]) -> RecolorRequest:
    """Validate and decode a ``recolor`` op NDJSON message (either form)."""
    if "weights" in message or "shape" in message:
        return recolor_from_arrays(message, weights=_decode_grid(message))
    delta = message.get("delta")
    if not isinstance(delta, dict):
        raise ProtocolError(
            "recolor needs 'weights' (seed form) or 'delta' (delta form)"
        )
    idx = delta.get("idx")
    new = delta.get("weights")
    if not isinstance(idx, list) or not isinstance(new, list):
        raise ProtocolError("'delta' must carry 'idx' and 'weights' lists")
    try:
        idx_arr = np.asarray(idx, dtype=np.int64)
        new_arr = np.asarray(new, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"delta is not int64 data: {exc}") from None
    if idx_arr.ndim != 1 or new_arr.ndim != 1:
        raise ProtocolError("delta idx and weights must be flat lists")
    return recolor_from_arrays(
        message, delta_idx=idx_arr, delta_weights=new_arr
    )


def recolor_to_wire(request: RecolorRequest) -> dict[str, Any]:
    """The canonical NDJSON message for a recolor request (either form)."""
    message: dict[str, Any] = {
        "api": PROTOCOL_API_VERSION,
        "op": "recolor",
        "id": request.request_id,
        "session": request.session,
    }
    if request.is_seed:
        message["shape"] = [int(s) for s in request.weights.shape]
        message["weights"] = (
            np.ascontiguousarray(request.weights, dtype=np.int64).ravel().tolist()
        )
        message["algorithm"] = request.algorithm
    else:
        message["delta"] = {
            "idx": np.asarray(request.delta_idx, dtype=np.int64).tolist(),
            "weights": np.asarray(request.delta_weights, dtype=np.int64).tolist(),
        }
    return message


@dataclass(frozen=True)
class ServedResult:
    """The outcome of one request, as resolved by the batcher.

    ``source`` records how the result was produced: ``computed`` (a kernel
    run), ``cache`` (content-addressed cache hit), or ``coalesced``
    (deduplicated against an identical request in the same micro-batch).
    """

    status: str
    starts: Optional[np.ndarray] = None
    maxcolor: Optional[int] = None
    source: str = ""
    compute_seconds: float = 0.0
    batch_size: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


# ------------------------------------------------------------------ encoding
def encode_message(message: dict[str, Any]) -> bytes:
    """One JSON message as a newline-terminated UTF-8 line."""
    data = json.dumps(message, separators=(",", ":")).encode()
    if len(data) + 1 > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(data)} bytes exceeds the {MAX_MESSAGE_BYTES} limit"
        )
    return data + b"\n"


def decode_message(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a message dict."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty message")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def request_to_wire(request: ColorRequest) -> dict[str, Any]:
    """A canonical (``"api": 1``) ``color`` op message for this request.

    Servers since the same protocol version accept this shape; older
    servers need the legacy shape (no ``api`` field, ``options.fast``),
    which :func:`request_from_wire` still decodes but this encoder no
    longer emits.
    """
    message: dict[str, Any] = {
        "api": PROTOCOL_API_VERSION,
        "op": "color",
        "id": request.request_id,
        "shape": list(request.shape),
        "weights": np.ascontiguousarray(request.weights, dtype=np.int64).ravel().tolist(),
        "algorithm": request.algorithm,
    }
    if request.tiled:
        message["runtime"] = "tiled"
    elif request.fast is not None:
        message["runtime"] = "kernels" if request.fast else "reference"
    if request.tile_shape is not None:
        message["tiles"] = list(request.tile_shape)
    if request.validate:
        message["validate"] = True
    if request.timeout is not None:
        message["timeout_ms"] = request.timeout * 1000.0
    return message


def request_from_wire(message: dict[str, Any]) -> ColorRequest:
    """Validate and decode a ``color`` op message.

    Both frame generations decode here: canonical ``"api": 1`` frames
    (top-level ``runtime`` / ``tiles`` / ``validate``) and legacy frames
    (no ``api``, ``options.fast`` / ``options.validate``).  When a frame
    mixes both vocabularies the canonical fields win.

    Raises
    ------
    ProtocolError
        On missing/ill-typed fields, an unsupported ``api`` version,
        non-2D/3D shapes, shape/weight length mismatches, or negative
        weights.
    """
    api = message.get("api")
    if api is not None and api != PROTOCOL_API_VERSION:
        raise ProtocolError(
            f"unsupported api version {api!r} (this server speaks "
            f"{PROTOCOL_API_VERSION})"
        )
    return request_from_fields(_decode_grid(message), message)


def request_from_fields(arr: np.ndarray, message: dict[str, Any]) -> ColorRequest:
    """Build a :class:`ColorRequest` from a decoded weight array + fields.

    The shared back half of request decoding: the NDJSON decoder
    (:func:`request_from_wire`) builds ``arr`` from the ``weights`` list,
    the binary decoder (:func:`repro.service.frames.decode_color_request`)
    from the raw payload buffer — both then validate the remaining fields
    here, so a request means exactly the same thing on either wire.
    """
    shape = [int(s) for s in arr.shape]
    if arr.size and arr.min() < 0:
        raise ProtocolError("weights must be non-negative")
    algorithm = message.get("algorithm")
    if not isinstance(algorithm, str) or not algorithm:
        raise ProtocolError("'algorithm' must be a non-empty string")
    options = message.get("options") or {}
    if not isinstance(options, dict):
        raise ProtocolError("'options' must be an object")
    fast = options.get("fast")
    if fast is not None and not isinstance(fast, bool):
        raise ProtocolError("option 'fast' must be a boolean")
    validate = bool(options.get("validate", False))
    tiled = False
    tile_shape: Optional[tuple[int, ...]] = None
    runtime = message.get("runtime")
    if runtime is not None:
        if not isinstance(runtime, str) or runtime not in _WIRE_RUNTIMES:
            raise ProtocolError(
                f"'runtime' must be one of {sorted(_WIRE_RUNTIMES)}, got {runtime!r}"
            )
        tiled = runtime == "tiled"
        fast = _WIRE_RUNTIMES[runtime]
    tiles = message.get("tiles")
    if tiles is not None:
        if (
            not isinstance(tiles, list)
            or len(tiles) != len(shape)
            or not all(isinstance(t, int) and t > 0 for t in tiles)
        ):
            raise ProtocolError(
                "'tiles' must be a list of positive per-axis tile dims "
                "matching the grid rank"
            )
        tile_shape = tuple(tiles)
        tiled = True
    if tiled and algorithm != "GLL":
        raise ProtocolError(
            f"tiled coloring reproduces the GLL scan only, got {algorithm!r}"
        )
    if "validate" in message:
        validate = bool(message["validate"])
    timeout_ms = message.get("timeout_ms")
    timeout: Optional[float] = None
    if timeout_ms is not None:
        if not isinstance(timeout_ms, (int, float)) or timeout_ms <= 0:
            raise ProtocolError("'timeout_ms' must be a positive number")
        timeout = float(timeout_ms) / 1000.0
    request_id = message.get("id", "")
    if not isinstance(request_id, str):
        request_id = str(request_id)
    return ColorRequest(
        weights=arr,
        algorithm=algorithm,
        fast=fast,
        validate=validate,
        timeout=timeout,
        request_id=request_id,
        tiled=tiled,
        tile_shape=tile_shape,
    )


def result_to_wire(
    result: ServedResult, request_id: str, extra: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    """A response message for ``result`` (status-dependent fields)."""
    message: dict[str, Any] = {"id": request_id, "status": result.status}
    if result.ok:
        assert result.starts is not None
        message["starts"] = np.asarray(result.starts).ravel().tolist()
        message["maxcolor"] = int(result.maxcolor or 0)
        message["source"] = result.source
        message["compute_ms"] = result.compute_seconds * 1000.0
        message["batch_size"] = result.batch_size
    elif result.error:
        message["error"] = result.error
    if extra:
        message.update(extra)
    return message
