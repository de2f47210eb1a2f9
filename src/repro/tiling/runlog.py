"""JSONL tile run log and the band-carry checkpoint behind resume.

The first line is a *header* naming the plan and the weight source (by
fingerprint); :func:`read_tile_log` refuses to adopt records whose header
does not match the current run, so a stale log against a different grid,
tile shape, or weight content is ignored wholesale rather than corrupting a
resume.

After the header come one :class:`TileRecord` per tile and, as each
outer-axis band completes, one *band record* holding the blake2b digest of
the band's carry (its last column/plane).  The carry itself is checkpointed
next to the log as ``<log>.carry.npy``: written to a temp file, read back
and checked against the band record's digest, then published with
``os.replace`` — so the checkpoint on disk is always a whole, verified
carry of some logged band.  :func:`read_band_resume` adopts the longest
prefix of completed bands whose recorded digest matches that checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

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
    """Append-only JSONL writer, header first, one record per line."""

    def __init__(
        self,
        path: Union[str, Path],
        *,
        plan_fingerprint: str,
        source_fingerprint: str,
        algorithm: str = "GLL",
    ) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "w", buffering=1)
        header = {
            "kind": _HEADER_KIND,
            "plan": plan_fingerprint,
            "source": source_fingerprint,
            "algorithm": algorithm,
        }
        self._fh.write(json.dumps(header, sort_keys=True) + "\n")

    def write(self, record: TileRecord) -> None:
        self._fh.write(record.to_json() + "\n")

    def commit_band(self, band: int, carry: np.ndarray) -> None:
        """Log band ``band`` as complete and checkpoint its carry.

        The band record (with the carry's digest) is written first; the
        carry then goes to a temp file that is read back and checked
        against that digest before it replaces the checkpoint.  If the
        check fails, the previous checkpoint stays, and a resume falls back
        to the band it belongs to.
        """
        digest = _carry_digest(carry)
        line = {"kind": _BAND_KIND, "band": int(band), "carry": digest}
        self._fh.write(json.dumps(line, sort_keys=True) + "\n")
        final = carry_path(self.path)
        tmp = final.with_name(f".{final.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("wb") as fh:
                np.save(fh, np.ascontiguousarray(carry))
            stored = _load_carry(tmp)
            if stored is not None and _carry_digest(stored) == digest:
                os.replace(tmp, final)
        finally:
            tmp.unlink(missing_ok=True)

    def close(self) -> None:
        self._fh.close()


def _read_log(
    path: Union[str, Path], plan_fingerprint: str, source_fingerprint: str
) -> tuple[dict[int, TileRecord], dict[int, str]]:
    """Completed tiles and band carry digests of a matching log."""
    try:
        text = Path(path).read_text()
    except OSError:
        return {}, {}
    adopted: dict[int, TileRecord] = {}
    carries: dict[int, str] = {}
    for lineno, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue
        if lineno == 0:
            if not (
                payload.get("kind") == _HEADER_KIND
                and payload.get("plan") == plan_fingerprint
                and payload.get("source") == source_fingerprint
            ):
                return {}, {}
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
