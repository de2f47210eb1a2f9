"""JSONL persistence for :class:`~repro.engine.records.RunRecord` streams.

One record per line, appended through :func:`repro.resilience.durable.append`
as cells complete, so a killed run still leaves a readable prefix: the
append heals a torn tail left by a killed writer (a whole record gets its
newline, a torn one is cut) and :func:`read_run_log` drops that same torn
tail.  :func:`diff_run_logs` compares two logs cell by cell for
quality-regression checks between code revisions.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional

from repro.engine.records import RunRecord
from repro.resilience import durable


class RunLogWriter:
    """Append-only JSONL writer, usable as a context manager.

    Parent directories are created up front; each :meth:`write` appends the
    full record line and flushes it, so concurrent readers (``tail -f``, a
    monitoring job) see completed cells immediately.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def write(self, record: RunRecord) -> None:
        durable.append(self.path, json.dumps(record.to_json()))

    def open(self) -> "RunLogWriter":
        return self

    def close(self, *exc_info: object) -> None:
        """Nothing to release: each write opens, appends and closes."""

    __enter__, __exit__ = open, close


def read_run_log(path: str | Path, *, strict: bool = False) -> list[RunRecord]:
    """Load every record of a JSONL run log (blank lines skipped).

    A process killed mid-append leaves a torn last line; by default it is
    dropped (the readable prefix is the run log), while a malformed line
    *before* the end raises :class:`ValueError` (real corruption, not an
    interrupted append).  Pass ``strict=True`` to raise on the torn last
    line too.
    """
    lines = durable.read(path)
    bad = lines.damaged + ([lines.torn] if strict and lines.torn else [])
    if bad:
        raise ValueError(f"corrupt run log {path}: line {bad[0]} is not JSON")
    records = []
    for number, payload in enumerate(lines.records, 1):
        try:
            records.append(RunRecord.from_json(payload))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"corrupt run log {path}: record {number} is not a RunRecord ({exc})"
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
