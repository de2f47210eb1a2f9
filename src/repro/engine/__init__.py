"""Batch execution engine for (instance × algorithm) grids.

Contents:

* :mod:`~repro.engine.executor` — :func:`run_grid`: chunked fan-out of a
  suite's cells across a supervised process pool, with per-worker instance
  reuse, per-cell failure isolation, crash recovery (pool restarts with
  bounded per-cell retries and chunk splitting), and ``resume_from=`` replay
  of an interrupted run log; serial execution is ``jobs=1`` of the same
  code path.  Results come back as a :class:`GridResult` (a ``list`` of
  records plus supervision counters).  The supervision machinery itself is
  exposed as :func:`run_supervised`, generic over the chunked workload.
* :mod:`~repro.engine.records` — :class:`RunRecord`, the structured outcome
  of one cell (maxcolor, lower bound, elapsed, worker, status).
* :mod:`~repro.engine.runlog` — JSONL streaming of records
  (:class:`RunLogWriter`, :func:`read_run_log`) and regression diffing
  between runs (:func:`diff_run_logs`).
"""

from repro.engine.executor import (
    CellTimeout,
    GridResult,
    resolve_jobs,
    run_grid,
    run_supervised,
)
from repro.engine.records import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    RunRecord,
)
from repro.engine.runlog import RunLogWriter, diff_run_logs, read_run_log

__all__ = [
    "CellTimeout",
    "GridResult",
    "RunLogWriter",
    "RunRecord",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "diff_run_logs",
    "read_run_log",
    "resolve_jobs",
    "run_grid",
    "run_supervised",
]
