"""JSONL tile run log and the band-carry checkpoint behind resume.

The first line is a *header* naming the plan and the weight source (by
fingerprint); :func:`read_tile_log` refuses to adopt records whose header
does not match the current run, so a stale log against a different grid,
tile shape, or weight content is ignored wholesale rather than corrupting a
resume.

After the header come one :class:`TileRecord` per tile and, as each
outer-axis band completes, one *band record* holding the blake2b digest of
the band's carry (its last column/plane).  Records are appended through
:func:`repro.resilience.durable.append`; a torn line is skipped on read, as
the band-prefix rule stops adoption at the first missing tile anyway.  The
carry is checkpointed next to the log as ``<log>.carry.npy`` through
:func:`~repro.resilience.durable.publish`, which checks a read-back copy
against the band record's digest, so the checkpoint on disk is always a
whole, verified carry of some logged band.  :func:`read_band_resume` adopts
the longest prefix of completed bands whose digest matches it, and a
resumed run publishes its log whole (header, adopted records, band record)
before its first append: a crash leaves either the old log or the new one.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.resilience import durable
from repro.tiling.plan import TilePlan

__all__ = [
    "TileRecord",
    "TileLogWriter",
    "carry_path",
    "read_band_resume",
    "read_tile_log",
    "STATUS_OK",
    "STATUS_ERROR",
]

STATUS_OK = "ok"
STATUS_ERROR = "error"

_HEADER_KIND = "tiling-header"
_BAND_KIND = "tiling-band"


@dataclass
class TileRecord:
    """The outcome of one tile: its maxcolor and the digest of its starts."""

    pos: int
    index: tuple[int, ...]
    status: str = STATUS_OK
    maxcolor: Optional[int] = None
    digest: Optional[str] = None
    elapsed: Optional[float] = None
    error: Optional[str] = None
    worker: Optional[str] = None
    resumed: bool = field(default=False, compare=False)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["index"] = list(self.index)
        payload.pop("resumed", None)
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "TileRecord":
        known = {f for f in cls.__dataclass_fields__ if f != "resumed"}
        kwargs = {k: v for k, v in payload.items() if k in known}
        kwargs["index"] = tuple(kwargs.get("index", ()))
        return cls(**kwargs)


def carry_path(log_path: Union[str, Path]) -> Path:
    """Where the carry checkpoint of the log at ``log_path`` lives."""
    return Path(f"{log_path}.carry.npy")


def _carry_digest(carry: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{carry.dtype.str}|{'x'.join(map(str, carry.shape))}|".encode())
    h.update(np.ascontiguousarray(carry).tobytes())
    return h.hexdigest()


def _load_carry(path: Path) -> Optional[np.ndarray]:
    """The carry stored at ``path``, or ``None`` if missing or unreadable."""
    try:
        return np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None


class TileLogWriter:
    """The JSONL tile log of one run, published whole, then appended to.

    A resumed run passes its ``adopted`` records and the ``carry`` of their
    last ``band``, which are published with the header.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        plan_fingerprint: str,
        source_fingerprint: str,
        algorithm: str = "GLL",
        adopted: Sequence[TileRecord] = (),
        band: int = -1,
        carry: Optional[np.ndarray] = None,
    ) -> None:
        self.path = Path(path)
        header = {"kind": _HEADER_KIND, "plan": plan_fingerprint,
                  "source": source_fingerprint, "algorithm": algorithm}
        lines = [json.dumps(header, sort_keys=True)]
        lines += [record.to_json() for record in adopted]
        if carry is not None:
            lines.append(_band_line(band, _publish_carry(self.path, carry)))
        text = "".join(line + "\n" for line in lines)
        if not durable.publish(self.path, text, lambda tmp: tmp.read_text() == text):
            raise OSError(f"tile log {self.path} failed its read-back check")

    def write(self, record: TileRecord) -> None:
        durable.append(self.path, record.to_json())

    def commit_band(self, band: int, carry: np.ndarray) -> None:
        """Log band ``band`` as complete and checkpoint its carry.

        The band record (with the carry's digest) is appended first; the
        carry is then published only if its read-back copy matches that
        digest.  If the check fails, the previous checkpoint stays, and a
        resume falls back to the band it belongs to.
        """
        durable.append(self.path, _band_line(band, _carry_digest(carry)))
        _publish_carry(self.path, carry)


def _band_line(band: int, digest: str) -> str:
    return json.dumps({"kind": _BAND_KIND, "band": int(band), "carry": digest}, sort_keys=True)


def _publish_carry(log_path: Path, carry: np.ndarray) -> str:
    """Checkpoint ``carry`` if a read-back copy matches; its digest."""
    digest = _carry_digest(carry)
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(carry))

    def verify(tmp: Path) -> bool:
        stored = _load_carry(tmp)
        return stored is not None and _carry_digest(stored) == digest

    durable.publish(carry_path(log_path), buf.getvalue(), verify)
    return digest


def _read_log(
    path: Union[str, Path], plan_fingerprint: str, source_fingerprint: str
) -> tuple[dict[int, TileRecord], dict[int, str]]:
    """Completed tiles and band carry digests of a matching log."""
    payloads = durable.read(path).records
    if not payloads or not (
        isinstance(payloads[0], dict)
        and payloads[0].get("kind") == _HEADER_KIND
        and payloads[0].get("plan") == plan_fingerprint
        and payloads[0].get("source") == source_fingerprint
    ):
        return {}, {}
    adopted: dict[int, TileRecord] = {}
    carries: dict[int, str] = {}
    for payload in payloads[1:]:
        if not isinstance(payload, dict):
            continue
        if payload.get("kind") == _BAND_KIND:
            band, carry = payload.get("band"), payload.get("carry")
            if isinstance(band, int) and isinstance(carry, str):
                carries[band] = carry
            continue
        try:
            record = TileRecord.from_dict(payload)
        except (TypeError, KeyError):
            continue
        if record.status == STATUS_OK and record.digest is not None:
            record.resumed = True
            adopted[record.pos] = record
    return adopted, carries


def read_tile_log(
    path: Union[str, Path],
    *,
    plan_fingerprint: str,
    source_fingerprint: str,
) -> dict[int, TileRecord]:
    """Completed (``ok``) tiles of a matching earlier log, keyed by position.

    Returns ``{}`` when the file is missing, unreadable, or headed by a
    different plan/source fingerprint.  Torn trailing lines (a run killed
    mid-write) are skipped; later duplicates win, matching append order.
    """
    return _read_log(path, plan_fingerprint, source_fingerprint)[0]


def read_band_resume(
    path: Union[str, Path],
    plan: TilePlan,
    *,
    source_fingerprint: str,
) -> tuple[int, Optional[np.ndarray], dict[int, TileRecord]]:
    """Where a run over ``plan`` resumes from the log at ``path``.

    Returns ``(next_band, carry, adopted)``: the band to color next, the
    carry it starts from, and the records of every tile in the bands before
    it.  The adopted bands are the longest prefix of completed bands (every
    tile logged ``ok``) whose last band's logged carry digest matches the
    checkpoint at :func:`carry_path`; with no such prefix — no log, a
    mismatched header, a missing, truncated or corrupted checkpoint — the
    result is ``(0, None, {})``.
    """
    adopted, carries = _read_log(path, plan.fingerprint(), source_fingerprint)
    carry = _load_carry(carry_path(path)) if carries else None
    if carry is None or carry.shape != plan.shape[:-1] or carry.dtype != np.int64:
        return 0, None, {}
    digest = _carry_digest(carry)
    bands = plan.bands()
    last = -1
    for b, band in enumerate(bands):
        if any(tile.pos not in adopted for tile in band):
            break
        if carries.get(b) == digest:
            last = b
    if last < 0:
        return 0, None, {}
    keep = {tile.pos for band in bands[: last + 1] for tile in band}
    return last + 1, carry, {pos: r for pos, r in adopted.items() if pos in keep}
