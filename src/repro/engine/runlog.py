"""JSONL persistence for :class:`~repro.engine.records.RunRecord` streams.

One record per line, appended and flushed as cells complete, so a killed run
still leaves a readable prefix.  :func:`diff_run_logs` compares two logs cell
by cell for quality-regression checks between code revisions.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Iterable, Optional

from repro.engine.records import RunRecord


class RunLogWriter:
    """Append-mode JSONL writer, usable as a context manager.

    Parent directories are created on open; each :meth:`write` emits the full
    record line in a single buffered write and flushes it, so concurrent
    readers (``tail -f``, a monitoring job) see completed cells immediately
    and a killed process leaves at most one truncated trailing line — which
    :func:`read_run_log` tolerates.  Opening an existing log cuts such a
    torn tail back to its last newline, so the next record starts a line
    of its own instead of turning the tear into mid-file corruption.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = None

    def open(self) -> "RunLogWriter":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _cut_torn_tail(self.path)
        self._handle = self.path.open("a")
        return self

    def write(self, record: RunRecord) -> None:
        if self._handle is None:
            self.open()
        assert self._handle is not None
        self._handle.write(json.dumps(record.to_json()) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunLogWriter":
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _cut_torn_tail(path: Path, chunk: int = 1 << 16) -> None:
    """Truncate ``path`` after its last newline (a no-op if it ends in one)."""
    try:
        handle = path.open("rb+")
    except FileNotFoundError:
        return
    with handle:
        end = pos = handle.seek(0, os.SEEK_END)
        while pos > 0:
            step = min(pos, chunk)
            handle.seek(pos - step)
            data = handle.read(step)
            newline = data.rfind(b"\n")
            if newline >= 0:
                if pos - step + newline + 1 < end:
                    handle.truncate(pos - step + newline + 1)
                return
            pos -= step
        handle.truncate(0)


def read_run_log(path: str | Path, *, strict: bool = False) -> list[RunRecord]:
    """Load every record of a JSONL run log (blank lines skipped).

    A process killed mid-:meth:`RunLogWriter.write` (or a crash before the
    final flush reached disk) leaves a truncated last line.  By default that
    trailing partial line is silently dropped — the readable prefix is the
    run log — while a malformed line *before* the end still raises
    :class:`ValueError` (real corruption, not an interrupted append).  Pass
    ``strict=True`` to raise on any malformed line including the last.
    """
    lines = Path(path).read_text().splitlines()
    last_content = -1
    for idx, line in enumerate(lines):
        if line.strip():
            last_content = idx
    records: list[RunRecord] = []
    for idx, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(RunRecord.from_json(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if idx == last_content and not strict:
                break  # truncated trailing append — keep the clean prefix
            raise ValueError(
                f"corrupt run log {path}: line {idx + 1} is not a RunRecord ({exc})"
            ) from exc
    return records


def diff_run_logs(
    old: Iterable[RunRecord], new: Iterable[RunRecord]
) -> list[tuple[str, str, Optional[int], Optional[int]]]:
    """Cells whose outcome changed between two runs.

    Keyed by ``(instance name, algorithm)``; returns
    ``(instance, algorithm, old_maxcolor, new_maxcolor)`` tuples for cells
    present in both logs whose maxcolor (or status) differs — the regression
    diff between two revisions of the heuristics.
    """
    def index(records: Iterable[RunRecord]) -> dict[tuple[str, str], RunRecord]:
        return {(r.instance, r.algorithm): r for r in records}

    old_by_key = index(old)
    changed = []
    for key, new_rec in index(new).items():
        old_rec = old_by_key.get(key)
        if old_rec is None:
            continue
        if old_rec.maxcolor != new_rec.maxcolor or old_rec.status != new_rec.status:
            changed.append((key[0], key[1], old_rec.maxcolor, new_rec.maxcolor))
    return changed
