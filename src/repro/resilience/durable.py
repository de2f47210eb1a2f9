"""One durable-record layer: append, read and publish.

The engine run log, the tile log, a session journal and a campaign's
``sessions.jsonl`` are JSONL files that outlive their writer, and all four
go through this module.  :func:`append` and :func:`read` share one rule for
the bytes after the last newline: if they parse as JSON they are a whole
record that lost only its newline (the append adds it), otherwise they are
a torn write (the append cuts them, the read drops them).  So an append
never removes a line a read returned.  An unparsable line before the tail
is damage, reported by number; each caller keeps its own policy for it.

The append holds an exclusive ``flock`` while it heals and writes, so it
never cuts a sibling worker's in-flight record as torn.  :func:`publish`
replaces a whole file: a temp file beside it, ``verify(tmp)``, then
``os.replace``; the temp file is always unlinked.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from repro.resilience.faults import InjectedFault, draw

__all__ = ["Lines", "TornWrite", "append", "publish", "read"]

#: Bytes read per step while looking back for the last newline.
_CHUNK = 1 << 16


class TornWrite(InjectedFault):
    """An injected ``torn`` fault wrote half the line, then raised."""


class Lines(NamedTuple):
    """The parsed records, the numbers of damaged lines, a dropped torn tail."""

    records: list
    damaged: list[int]
    torn: Optional[int] = None


def _heal(fd: int) -> bytes:
    """Cut a torn tail; return the newline a whole last record lacks, if any."""
    end = start = os.fstat(fd).st_size
    if end == 0 or os.pread(fd, 1, end - 1) == b"\n":
        return b""
    while start > 0:
        step = min(start, _CHUNK)
        newline = os.pread(fd, step, start - step).rfind(b"\n")
        start -= step
        if newline >= 0:
            start += newline + 1
            break
    try:
        json.loads(os.pread(fd, end - start, start))
        return b"\n"
    except ValueError:
        os.ftruncate(fd, start)
        return b""


def append(path: str | Path, line: str, *, fsync: bool = False,
           site: Optional[str] = None, token: str = "") -> None:
    """Append ``line`` (JSON text, no newline) as one record of ``path``."""
    fault = draw(site, token) if site is not None else None
    if fault is not None and fault.kind == "error":
        raise InjectedFault(f"injected {site} fault for {token!r}")
    torn = fault is not None and fault.kind == "torn"
    with open(path, "a+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        payload = _heal(fh.fileno()) + line.encode() + b"\n"
        if torn:
            payload = payload[: max(1, len(payload) // 2)]
        fh.write(payload)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    if torn:
        raise TornWrite(f"injected {site} torn write for {token!r}")


def read(path: str | Path) -> Lines:
    """The records of ``path`` (blank lines skipped; missing file: none)."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return Lines([], [])
    lines = raw.split(b"\n")
    records: list = []
    damaged: list[int] = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            damaged.append(number)
    # Only bytes after the last newline can be a torn append.
    torn = damaged.pop() if damaged and damaged[-1] == len(lines) else None
    return Lines(records, damaged, torn)


def publish(final: str | Path, data: str | bytes, verify: Callable[[Path], bool],
            *, fsync: bool = False) -> bool:
    """Replace ``final`` with ``data`` if ``verify(tmp)`` accepts the copy (the result)."""
    final = Path(final)
    tmp = final.with_name(f".{final.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        if not verify(tmp):
            return False
        os.replace(tmp, final)
        return True
    finally:
        tmp.unlink(missing_ok=True)
