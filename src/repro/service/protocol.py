"""Typed request/response protocol of the online coloring service.

The service speaks binary frames (:mod:`repro.service.frames`) over a
stream transport.  A frame's JSON header is a message dict of this module's
vocabulary minus its bulk array, which rides raw in the payload.  Every
request carries an ``op`` plus an optional client-chosen ``id`` echoed back
in the response; responses carry a ``status``:

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

The ``recolor`` op has two forms sharing one validator
(:func:`recolor_from_arrays`): a **seed** (``session`` + ``shape`` +
``algorithm`` plus the weight grid — the server colors the grid, stores it
under the session id, and answers with the full starts) and a **delta**
(``session`` plus flat indices and their *absolute* new weights, so a
retried delta is idempotent; the server patches the held coloring through
:mod:`repro.incremental` and answers with only the changed cells).  A
delta naming a session the server no longer holds is answered ``invalid``
with ``code: "unknown-session"`` on the *open* connection — it is a state
miss, not a protocol breach, and the client recovers by re-seeding.

Versioning
----------
Canonical request frames carry ``"api": 1`` (:data:`PROTOCOL_API_VERSION`)
and mirror :func:`repro.api.color`'s vocabulary: a top-level ``runtime``
(``"auto"`` / ``"kernels"`` / ``"reference"`` / ``"tiled"``), an optional
``tiles`` tile-shape hint routing the request through the out-of-core
tiler, and a top-level ``validate``.  Legacy frames — no ``api`` field,
``options.fast`` instead of ``runtime`` — are accepted unchanged forever;
an ``api`` value other than ``1`` is refused as ``invalid`` rather than
half-understood (:func:`check_api_version`).  ``docs/service.md`` tabulates the mapping.

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

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.runtime.config import RUNTIME_MODES
from repro.runtime.fingerprint import content_key

#: Upper bound on one frame payload (also the stream readers' buffer limit).
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: The canonical request-frame version this build speaks (``"api"`` field).
PROTOCOL_API_VERSION = 1

#: Response statuses.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_INVALID = "invalid"
STATUS_TIMEOUT = "timeout"
STATUS_OVERLOADED = "overloaded"


class ProtocolError(ValueError):
    """A message that does not parse as a valid protocol frame."""


def check_api_version(message: dict[str, Any]) -> None:
    """Refuse a request whose ``api`` field names another protocol version.

    A request without ``api`` is a legacy request and is accepted.
    """
    api = message.get("api")
    if api is not None and api != PROTOCOL_API_VERSION:
        raise ProtocolError(
            f"unsupported api version {api!r} (this server speaks "
            f"{PROTOCOL_API_VERSION})"
        )


# content_key (imported above, re-exported for existing callers) moved to
# repro.runtime.fingerprint so the kernel substrate shares the same
# canonicalization; the digests are byte-identical, so the spill-directory
# entries (``<key>.json``) written by older servers still serve a new one.


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


def recolor_session_fields(message: dict[str, Any]) -> tuple[str, str]:
    """``(session, request_id)`` of a recolor message, validated."""
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

    The frame decoder (:func:`repro.service.frames.decode_recolor_request`)
    builds the arrays from the payload; the fields are validated here.
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


@dataclass(frozen=True)
class ServedResult:
    """The outcome of one request, as resolved by the compute queue.

    ``source`` records how the result was produced: ``computed`` (a kernel
    run), ``cache`` (content-addressed cache hit), or ``coalesced``
    (answered by the computation of an identical request that was queued or
    computing when it arrived).  ``batch_size`` is the number of requests
    that one computation (or cache read) answered.
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


def request_from_fields(arr: np.ndarray, message: dict[str, Any]) -> ColorRequest:
    """Build a :class:`ColorRequest` from a decoded weight array + fields.

    The frame decoder (:func:`repro.service.frames.decode_color_request`)
    builds ``arr`` from the payload; the remaining fields are validated
    here.  Both request generations decode: canonical ``"api": 1`` fields
    (top-level ``runtime`` / ``tiles`` / ``validate``) and legacy ones
    (``options.fast`` / ``options.validate``); when a request mixes both
    vocabularies the canonical fields win.
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
        if not isinstance(runtime, str) or runtime not in RUNTIME_MODES:
            raise ProtocolError(
                f"'runtime' must be one of {sorted(RUNTIME_MODES)}, got {runtime!r}"
            )
        tiled = runtime == "tiled"
        fast = RUNTIME_MODES[runtime]
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
