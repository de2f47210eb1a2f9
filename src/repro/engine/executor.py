"""The batch execution engine: fan an (instance × algorithm) grid over workers.

The grid of a suite run is flattened into cells, chunked, and submitted to a
``concurrent.futures.ProcessPoolExecutor``.  The full instance list is shipped
to each worker exactly once (through the pool initializer), so workers reuse
constructed instances and geometry across all of their cells, and cache the
per-instance lower bound the first time any cell of that instance runs.

Failure isolation is per cell: an algorithm that raises — or exceeds the
optional per-cell time limit — yields an ``error``/``timeout``
:class:`~repro.engine.records.RunRecord` while every other cell proceeds.

**Pool supervision.**  A worker process dying outright (segfault, OOM kill,
``kill -9``) breaks the whole ``ProcessPoolExecutor``: every in-flight chunk
raises ``BrokenProcessPool``, not just the chunk the dead worker held.  The
engine treats that as recoverable.  Workers journal a ``start``/``done``
mark per cell to a per-pool file, so after a break the supervisor knows
which cells were actually mid-execution (at most ``jobs`` of them) — those
become *suspects*, while every other lost cell is requeued intact, free of
charge.  Suspects re-run one at a time, alone in a fresh pool, once the
ordinary queue drains: a break then has certain blame, and only there is
retry budget (``max_cell_retries`` extra attempts per cell) charged.  A
suspect crashing past its budget becomes a crash record; with
``max_cell_retries=0`` every cell lost to a break fails fast instead.
Because blame never attaches by co-location, a poison cell cannot burn the
budget of cells that merely shared its pool, and the outcome is independent
of pool scheduling.  The supervision counters are
returned on the result (:class:`GridResult`: ``pool_restarts``,
``cells_retried``, ``cells_resumed``).

**Resume.**  ``resume_from=`` points at an existing JSONL run log (typically
the ``log_path`` of a run that was killed part-way); cells the log already
holds with ``ok`` or ``timeout`` status are adopted verbatim and only
missing/``error`` cells execute.  Because every registry algorithm is
deterministic, a resumed grid is bit-identical to an uninterrupted one.

Serial execution is ``jobs=1`` of the same code path: the identical
initializer and chunk runner execute in-process (streaming the run log cell
by cell, so a killed serial run leaves an adoptable prefix just like a
killed pool), so parallel and serial runs are byte-identical in everything
but ``elapsed`` and ``worker``.

Chaos hooks: each cell attempt passes through the ``engine.cell`` fault
injection site (:mod:`repro.resilience.faults`) with token
``"<instance>:<algorithm>#<attempt>"`` — ``crash`` kills the worker process,
``error`` raises inside the cell, ``slow`` sleeps before computing.
"""

from __future__ import annotations

import math
import os
import signal
import tempfile
import threading
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator, Optional, Sequence

from repro.core.bounds import lower_bound
from repro.core.problem import IVCInstance
from repro.engine.records import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    RunRecord,
)
from repro.engine.runlog import RunLogWriter, read_run_log
from repro.obs.metrics import merge_snapshots
from repro.resilience.faults import inject
from repro.runtime.config import RuntimeConfig
from repro.runtime.context import ExecutionContext, get_context, set_default_context

#: A cell is ``(position in the flattened grid, instance index, algorithm,
#: attempt number)``.  The attempt number is 0 on first submission and grows
#: by one each time the cell is resubmitted after a pool crash, so fault
#: injection and diagnostics can tell retries apart.
Cell = tuple[int, int, str, int]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means all cores."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


class GridResult(list):
    """The records of a grid run plus the supervision counters.

    A plain ``list[RunRecord]`` in grid order (instance-major), so every
    existing caller keeps working, with three extra attributes:

    ``pool_restarts``
        Times the worker pool was rebuilt after a worker death.
    ``cells_retried``
        Budget-charged retry attempts: re-runs granted to a cell after it
        crashed *alone* in the pool, where the blame was certain.  Cells
        requeued merely because they shared a broken pool are not counted.
    ``cells_resumed``
        Cells adopted from a ``resume_from=`` run log instead of executing.
    ``metrics``
        The merged metrics snapshot of every worker context that ran cells
        (counters summed, histograms merged bucket-by-bucket across
        processes; see :func:`repro.obs.metrics.merge_snapshots`).  For
        serial runs it is the snapshot of the run's own context — which,
        when no explicit ``context=`` was given, is the ambient one and so
        cumulative over the process.
    """

    pool_restarts: int = 0
    cells_retried: int = 0
    cells_resumed: int = 0
    metrics: Optional[dict] = None


class CellTimeout(Exception):
    """Raised inside a worker when a cell exceeds the per-cell time limit."""


@contextmanager
def _time_limit(seconds: Optional[float]) -> Iterator[None]:
    """Interrupt the enclosed block after ``seconds`` via ``SIGALRM``.

    A no-op when no limit is set, off the main thread, or on platforms
    without ``SIGALRM`` (the engine then simply has no timeout support).
    """
    usable = (
        seconds is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _alarm(signum, frame):
        raise CellTimeout(f"cell exceeded {seconds:g}s time limit")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class _WorkerState:
    """Per-worker-process state, installed by the pool initializer."""

    instances: Sequence[IVCInstance]
    validate: bool
    cell_timeout: Optional[float]
    capture_starts: bool
    fast_paths: Optional[bool] = None
    context: Optional[ExecutionContext] = None
    journal: Optional[object] = None
    bounds: dict[int, int] = field(default_factory=dict)
    chunks_done: int = 0

    def lower_bound_of(self, index: int) -> int:
        if index not in self.bounds:
            self.bounds[index] = lower_bound(self.instances[index])
        return self.bounds[index]


_STATE: Optional[_WorkerState] = None


def _init_worker(
    instances: Sequence[IVCInstance],
    validate: bool,
    cell_timeout: Optional[float],
    capture_starts: bool,
    fast_paths: Optional[bool] = None,
    config: Optional[RuntimeConfig] = None,
    journal_path: Optional[str] = None,
    context: Optional[ExecutionContext] = None,
) -> None:
    """Pool initializer: receive the instance list once per worker.

    Each worker builds its own :class:`ExecutionContext` from the shipped
    (picklable) :class:`RuntimeConfig` and installs it as the process
    default, so every cell colored in this worker shares one substrate cache
    (:mod:`repro.kernels.substrate`) — repeated shapes in a suite reuse
    adjacency/offset tables within the worker for the whole run — and lands
    its counters in the worker's own metrics registry (shipped back to the
    parent with each chunk).  The context's fault spec, if any, is installed
    too; an empty spec leaves fork-inherited plans untouched.

    The serial path passes ``context`` directly instead of ``config`` and
    does *not* replace the process default.

    ``journal_path`` names the pool's shared start/done journal (each worker
    appends through its own ``O_APPEND`` descriptor, line-buffered, so the
    short marks interleave whole).  ``None`` — the serial path — disables
    journalling.

    It also loads the compiled first-fit loop (building it on a cold
    cache), so that one-time cost lands here and not in the first cell's
    timing.
    """
    from repro.kernels import native

    global _STATE
    native.path()
    if context is None:
        if config is not None:
            context = ExecutionContext(config)
            set_default_context(context)
            context.install_faults()
        else:
            context = get_context()
    _STATE = _WorkerState(
        instances=instances,
        validate=validate,
        cell_timeout=cell_timeout,
        capture_starts=capture_starts,
        fast_paths=fast_paths,
        context=context,
        journal=(
            open(journal_path, "a", buffering=1) if journal_path is not None else None
        ),
    )


def _run_cell(
    state: _WorkerState, pos: int, index: int, name: str, attempt: int = 0
) -> RunRecord:
    """Execute one (instance, algorithm) cell, never letting exceptions out."""
    from repro.core.algorithms.registry import color_with

    instance = state.instances[index]
    shape = tuple(instance.geometry.shape) if instance.geometry is not None else None
    base = dict(
        instance_index=index,
        instance=instance.name,
        shape=shape,
        algorithm=name,
        worker=f"pid-{os.getpid()}",
    )
    metrics = state.context.metrics if state.context is not None else None
    t0 = perf_counter()
    bound: Optional[int] = None
    try:
        inject("engine.cell", f"{instance.name}:{name}#{attempt}")
        bound = state.lower_bound_of(index)
        with _time_limit(state.cell_timeout):
            coloring = color_with(
                instance, name, fast=state.fast_paths, context=state.context
            )
            if state.validate:
                coloring.check()
        if coloring.maxcolor < bound:
            raise AssertionError(
                f"{name} beat the lower bound on {instance.name!r} — bound bug"
            )
    except CellTimeout as exc:
        if metrics is not None:
            metrics.counter("engine.cells_timeout").inc()
        return RunRecord(
            status=STATUS_TIMEOUT,
            lower_bound=bound,
            elapsed=perf_counter() - t0,
            error=f"{type(exc).__name__}: {exc}",
            **base,
        )
    except Exception as exc:
        if metrics is not None:
            metrics.counter("engine.cells_error").inc()
        return RunRecord(
            status=STATUS_ERROR,
            lower_bound=bound,
            elapsed=perf_counter() - t0,
            error=f"{type(exc).__name__}: {exc}",
            **base,
        )
    if metrics is not None:
        metrics.counter("engine.cells_ok").inc()
        metrics.histogram("engine.cell_seconds").observe(perf_counter() - t0)
    return RunRecord(
        status=STATUS_OK,
        maxcolor=coloring.maxcolor,
        lower_bound=bound,
        elapsed=coloring.elapsed,
        starts=tuple(int(s) for s in coloring.starts) if state.capture_starts else None,
        **base,
    )


def _run_chunk(cells: Sequence[Cell]) -> dict:
    """Run a chunk of cells against the installed worker state.

    Each cell is bracketed by ``start``/``done`` journal marks: a cell whose
    ``start`` has no ``done`` when the pool breaks was mid-execution in the
    dead (or torn-down) worker, which is how the supervisor tells suspects
    from cells that were merely queued behind them.

    Returns a payload carrying the ``(pos, record)`` pairs plus the worker's
    pid, a per-worker chunk sequence number, and its *cumulative*
    context-metrics snapshot (with histogram bucket state); the parent keeps
    the highest-sequence snapshot per pid and merges them into
    :attr:`GridResult.metrics` at the end.  The sequence number matters:
    chunk completions arrive at the parent in no particular order, so
    without it a worker's older (smaller) cumulative snapshot could
    overwrite its newer one and undercount the merge.
    """
    assert _STATE is not None, "worker state missing — initializer did not run"
    out = []
    for pos, index, name, attempt in cells:
        if _STATE.journal is not None:
            _STATE.journal.write(f"start {pos}\n")
        out.append((pos, _run_cell(_STATE, pos, index, name, attempt)))
        if _STATE.journal is not None:
            _STATE.journal.write(f"done {pos}\n")
    _STATE.chunks_done += 1
    snapshot = (
        _STATE.context.metrics.snapshot(include_state=True)
        if _STATE.context is not None
        else None
    )
    return {
        "pairs": out,
        "pid": os.getpid(),
        "seq": _STATE.chunks_done,
        "metrics": snapshot,
    }


def _chunked(cells: Sequence[Cell], chunk_size: int) -> list[list[Cell]]:
    return [list(cells[i : i + chunk_size]) for i in range(0, len(cells), chunk_size)]


def _crash_record(
    cell: Cell, instances: Sequence[IVCInstance], exc: BaseException
) -> tuple[int, RunRecord]:
    """The error record for one cell whose retry budget crashed away."""
    pos, index, name, attempt = cell
    instance = instances[index]
    shape = tuple(instance.geometry.shape) if instance.geometry is not None else None
    return (
        pos,
        RunRecord(
            instance_index=index,
            instance=instance.name,
            shape=shape,
            algorithm=name,
            status=STATUS_ERROR,
            error=(
                f"worker crashed on every attempt (x{attempt + 1}): "
                f"{type(exc).__name__}: {exc}"
            ),
        ),
    )


def _split_chunk(chunk: list[Cell]) -> list[list[Cell]]:
    """Halve a crashed chunk so a poison cell is progressively isolated."""
    if len(chunk) <= 1:
        return [chunk]
    mid = len(chunk) // 2
    return [chunk[:mid], chunk[mid:]]


def _read_journal(path: str) -> set[int]:
    """Grid positions whose ``start`` mark has no matching ``done``.

    These are the cells that were mid-execution when the pool broke — at
    most one per worker, and among them the cell whose worker actually died.
    A torn trailing line (the worker died mid-write) is skipped, not fatal.
    """
    try:
        text = Path(path).read_text()
    except OSError:
        return set()
    started: set[int] = set()
    done: set[int] = set()
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 2 or not parts[1].isdigit():
            continue
        if parts[0] == "start":
            started.add(int(parts[1]))
        elif parts[0] == "done":
            done.add(int(parts[1]))
    return started - done


def _adopt_resumed(
    resume_from: str | Path,
    instances: Sequence[IVCInstance],
    names: Sequence[str],
) -> dict[int, RunRecord]:
    """Completed cells of an earlier run log, keyed by grid position.

    Only records that still match the current grid are adopted: the
    instance index must hold the same instance name and the algorithm must
    be in this run's set.  ``ok`` and ``timeout`` cells count as completed
    (re-running a timeout would time out again); ``error`` cells — including
    crash records — are left to re-execute.  Later duplicates win, matching
    append order.
    """
    name_pos = {name: j for j, name in enumerate(names)}
    adopted: dict[int, RunRecord] = {}
    for record in read_run_log(resume_from):
        j = name_pos.get(record.algorithm)
        if j is None or not 0 <= record.instance_index < len(instances):
            continue
        if instances[record.instance_index].name != record.instance:
            continue
        if record.status not in (STATUS_OK, STATUS_TIMEOUT):
            continue
        adopted[record.instance_index * len(names) + j] = record
    return adopted


def run_supervised(
    chunks: list[list[tuple]],
    *,
    task,
    initializer,
    initargs: tuple,
    jobs: int,
    max_cell_retries: int,
    store,
    crash_record,
    counters,
) -> None:
    """Run chunks on a supervised pool, restarting it after worker deaths.

    Generic over the work being executed — :func:`run_grid`'s cells run
    through here, and any other chunked workload gets journal-based blame
    isolation, bounded per-cell retries, and chunk splitting for free.
    The contract:

    * a *cell* is any tuple whose first element is its unique integer
      position (matching the start/done journal marks the ``task`` writes)
      and whose last element is the attempt counter (incremented here on
      budget-charged retries);
    * ``task(chunk)`` is a picklable callable returning a payload for
      ``store`` (the engine's ``_run_chunk`` shape: pairs + pid + metrics);
    * ``initializer(*initargs, journal_path)`` installs worker state — the
      supervisor appends the pool's journal path as the final argument;
    * ``crash_record(cell, exc)`` synthesizes the ``(pos, record)`` pair
      stored for a cell whose retry budget crashed away;
    * ``counters`` carries ``pool_restarts`` / ``cells_retried`` attributes
      (:class:`GridResult` satisfies this).

    One iteration of the outer loop is one pool lifetime.  Ordinary rounds
    submit every queued chunk, store completions as they arrive, and treat
    the first pool-level failure (``BrokenProcessPool`` &c.) as aborting the
    round: chunks that completed keep their results, and the workers'
    start/done journal identifies which of the lost cells were actually
    mid-execution (at most ``jobs`` of them).  Those become *suspects*;
    every other lost cell is requeued intact, free of charge — blame never
    attaches by co-location, so the outcome does not depend on which chunks
    happened to share the broken pool.

    Suspects run once the ordinary queue drains, one at a time, alone in a
    single-worker pool: a break then has certain blame, and only there is
    retry budget charged (``attempt`` advances, which re-rolls the
    ``engine.cell`` fault token — mirroring how a real poison cell behaves
    the same way every time it runs alone).  A suspect past its budget
    becomes a crash record; with ``max_cell_retries=0`` every cell lost to
    a break fails fast instead.

    If a break leaves no journal evidence (a worker died before its first
    mark reached the file), lost multi-cell chunks are halved and lost
    singletons become suspects, so isolation still converges.
    """
    queue = list(chunks)
    suspects: list[tuple] = []
    while queue or suspects:
        if queue:
            round_chunks, queue = queue, []
            alone: Optional[tuple] = None
        else:
            alone = suspects.pop(0)
            round_chunks = [[alone]]
        crashed: Optional[BaseException] = None
        lost_chunks: list[list[tuple]] = []
        journal_fd, journal_path = tempfile.mkstemp(prefix="repro-cell-journal-")
        os.close(journal_fd)
        try:
            with ProcessPoolExecutor(
                max_workers=1 if alone is not None else jobs,
                initializer=initializer,
                initargs=initargs + (journal_path,),
            ) as pool:
                futures: dict[Future, list[tuple]] = {}
                for chunk in round_chunks:
                    try:
                        futures[pool.submit(task, chunk)] = chunk
                    except Exception as exc:
                        # The pool broke while we were still submitting (a
                        # worker died on an earlier chunk): everything not
                        # yet submitted is lost the same way the in-flight
                        # chunks are.
                        crashed = exc
                        lost_chunks.append(chunk)
                pending = set(futures)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        try:
                            store(future.result())
                        except Exception as exc:
                            # A worker died: this chunk's results are gone,
                            # and the pool is broken — every still-pending
                            # chunk will fail the same way.  Collect them
                            # all and rebuild.
                            crashed = exc
                            lost_chunks.append(futures[future])
                    if crashed is not None:
                        for future in pending:
                            try:
                                store(future.result())
                            except Exception:
                                lost_chunks.append(futures[future])
                        break
            if crashed is None:
                continue
            counters.pool_restarts += 1
            if alone is not None:
                # The pool held nothing but this cell: the blame is certain,
                # and this is the only place retry budget is charged.
                if alone[-1] >= max_cell_retries:
                    store([crash_record(alone, crashed)])
                else:
                    suspects.append(alone[:-1] + (alone[-1] + 1,))
                    counters.cells_retried += 1
                continue
            lost_cells = [cell for chunk in lost_chunks for cell in chunk]
            if max_cell_retries <= 0:
                store([crash_record(c, crashed) for c in lost_cells])
                continue
            culprits = _read_journal(journal_path) & {c[0] for c in lost_cells}
            if culprits:
                for chunk in lost_chunks:
                    suspects.extend(c for c in chunk if c[0] in culprits)
                    keep = [c for c in chunk if c[0] not in culprits]
                    if keep:
                        queue.append(keep)
            else:
                for chunk in lost_chunks:
                    if len(chunk) == 1:
                        suspects.append(chunk[0])
                    else:
                        queue.extend(_split_chunk(chunk))
        finally:
            try:
                os.unlink(journal_path)
            except OSError:
                pass


def run_grid(
    instances: Iterable[IVCInstance],
    algorithms: Sequence[str],
    *,
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
    validate: bool = True,
    cell_timeout: Optional[float] = None,
    capture_starts: bool = False,
    fast_paths: Optional[bool] = None,
    log_path: str | Path | None = None,
    max_cell_retries: Optional[int] = None,
    resume_from: str | Path | None = None,
    context: Optional[ExecutionContext] = None,
    metrics_state: bool = False,
) -> GridResult:
    """Run every algorithm on every instance, one :class:`RunRecord` per cell.

    Parameters
    ----------
    instances:
        The suite, in run order; shipped to each worker once and reused.
    algorithms:
        Registry names (paper set or extensions).
    jobs:
        Worker processes; ``None`` or ``0`` means ``os.cpu_count()``, ``1``
        runs the identical code path in-process.
    chunk_size:
        Cells per task submission; defaults to an even ~4-chunks-per-worker
        split (load balancing vs. submission overhead).
    validate:
        Check every produced coloring (cheap, vectorized).
    cell_timeout:
        Optional per-cell wall-clock limit in seconds (``SIGALRM``-based;
        ignored on platforms without it).  Exceeding cells record
        ``status="timeout"``.
    capture_starts:
        Attach each coloring's start vector to its record so callers can
        rebuild :class:`~repro.core.coloring.Coloring` objects.
    fast_paths:
        Per-cell kernel fast-path override forwarded to
        :func:`~repro.core.algorithms.registry.color_with`: ``True``/``False``
        forces the vectorized kernels on/off in every worker, ``None``
        (default) follows the run context's
        :class:`~repro.runtime.config.RuntimeConfig` ``fast_paths`` (the
        explicit argument always beats the config, which beats the
        environment).
    log_path:
        Stream records to this JSONL file as cells complete.
    max_cell_retries:
        Extra attempts each cell gets after crashing a pool it had all to
        itself (``jobs > 1`` only).  After a worker death the start/done
        journal identifies the cells that were mid-execution; those re-run
        alone in a rebuilt pool — where a crash has certain blame and
        charges this budget — while every other lost cell is requeued
        intact for free.  ``0`` restores fail-fast crash records for every
        lost cell; ``None`` (default) follows the run context's
        ``config.max_cell_retries``.
    resume_from:
        Path to an existing JSONL run log; its ``ok``/``timeout`` cells are
        adopted verbatim (not re-executed and *not* re-written to
        ``log_path``, so resuming with ``log_path == resume_from`` appends
        only the newly executed cells) and only missing/``error`` cells run.
    context:
        The :class:`ExecutionContext` governing the run.  Its (picklable)
        config is shipped to every worker, which rebuilds a context of its
        own around it; worker metrics snapshots are merged into
        :attr:`GridResult.metrics`.  ``None`` uses the ambient context.
    metrics_state:
        Keep raw histogram bucket state on :attr:`GridResult.metrics` so the
        snapshot can be merged again later (campaign harvests fold one
        snapshot per run session).  The default plain snapshot carries
        summaries only.

    Returns
    -------
    GridResult
        A ``list[RunRecord]`` in grid order — instance-major, then
        ``algorithms`` order, identical regardless of ``jobs`` — carrying
        ``pool_restarts`` / ``cells_retried`` / ``cells_resumed`` counters.
    """
    ctx = context if context is not None else get_context()
    instances = list(instances)
    names = list(algorithms)
    records: list[Optional[RunRecord]] = [None] * (len(instances) * len(names))
    result = GridResult()
    retries = (
        ctx.config.max_cell_retries if max_cell_retries is None else max_cell_retries
    )

    if resume_from is not None:
        for pos, record in _adopt_resumed(resume_from, instances, names).items():
            records[pos] = record
            result.cells_resumed += 1

    cells: list[Cell] = [
        (i * len(names) + j, i, name, 0)
        for i in range(len(instances))
        for j, name in enumerate(names)
        if records[i * len(names) + j] is None
    ]
    jobs = min(resolve_jobs(jobs), max(1, len(cells)))

    writer = RunLogWriter(log_path) if log_path is not None else None
    worker_snaps: dict[int, tuple[int, dict]] = {}  # pid -> (seq, snapshot)

    def store(payload) -> None:
        if isinstance(payload, dict):  # a chunk payload from _run_chunk
            if payload["metrics"] is not None:
                held = worker_snaps.get(payload["pid"])
                if held is None or payload["seq"] > held[0]:
                    worker_snaps[payload["pid"]] = (
                        payload["seq"],
                        payload["metrics"],
                    )
            pairs: Iterable[tuple[int, RunRecord]] = payload["pairs"]
        else:  # a bare pair list (crash records synthesized by the parent)
            pairs = payload
        for pos, record in pairs:
            records[pos] = record
            if writer is not None:
                writer.write(record)

    if not cells:
        pass  # fully resumed — nothing to execute
    elif jobs == 1:
        _init_worker(instances, validate, cell_timeout, capture_starts, fast_paths,
                     context=ctx)
        try:
            # Stream cell by cell (chunk_size 1 unless asked otherwise)
            # so the run log grows as cells complete — a killed serial
            # run leaves an adoptable prefix, same as a killed pool.
            for chunk in _chunked(cells, chunk_size or 1):
                store(_run_chunk(chunk))
        finally:
            global _STATE
            _STATE = None
    else:
        if chunk_size is None:
            chunk_size = max(1, math.ceil(len(cells) / (jobs * 4)))
        run_supervised(
            _chunked(cells, chunk_size),
            task=_run_chunk,
            initializer=_init_worker,
            initargs=(instances, validate, cell_timeout, capture_starts,
                      fast_paths, ctx.config),
            jobs=jobs,
            max_cell_retries=max(0, int(retries)),
            store=store,
            crash_record=lambda cell, exc: _crash_record(cell, instances, exc),
            counters=result,
        )

    assert all(r is not None for r in records)
    result.metrics = merge_snapshots(
        (snap for _, snap in worker_snaps.values()), include_state=metrics_state
    )
    result.extend(records)
    return result
