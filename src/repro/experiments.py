"""Shared experiment driver: run algorithm sets over instance suites.

The CLI, the benchmark harness, and library callers all funnel through
:func:`run_suite`, so the numbers printed for Figures 5–9 always come from
the same code path.  Under the hood every run goes through the batch engine
(:func:`repro.engine.run_grid`): ``jobs=1`` executes the identical cell code
serially in-process, ``jobs>1`` fans the (instance × algorithm) grid across
a process pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.analysis.performance_profiles import PerformanceProfile, performance_profile
from repro.core.algorithms.registry import ALGORITHMS
from repro.core.problem import IVCInstance
from repro.engine import RunRecord, run_grid
from repro.runtime.context import ExecutionContext


class EmptySuiteError(ValueError):
    """A profile/report was requested on a suite with nothing to profile.

    Raised by :meth:`SuiteResult.profile` when the suite holds no instances
    at all, or when every instance has at least one failed cell (so
    ``subset(ok_indices())`` would be empty).  Before this error existed the
    failure surfaced as a cryptic empty-array ``ValueError`` (or a
    ``ZeroDivisionError``) deep inside the profile math.
    """


class SuiteExecutionError(RuntimeError):
    """A suite cell failed while ``on_error="raise"`` was in effect.

    Carries the failing :attr:`record` so callers can inspect the instance,
    algorithm, and captured error message.
    """

    def __init__(self, record: RunRecord) -> None:
        self.record = record
        super().__init__(
            f"{record.algorithm} failed on instance {record.instance!r} "
            f"[{record.status}]: {record.error}"
        )


@dataclass
class SuiteResult:
    """Everything measured while running a suite.

    Attributes
    ----------
    instances:
        The instances, in run order.
    maxcolors:
        ``{algorithm: [maxcolor per instance]}``.  Failed cells (only
        possible with ``on_error="record"``) hold ``-1``.
    times:
        ``{algorithm: [elapsed seconds per instance]}``.  Failed cells hold
        ``nan``.
    lower_bounds:
        The clique/maxpair lower bound per instance.
    records:
        The per-cell :class:`~repro.engine.records.RunRecord` list, in grid
        order (instance-major).
    """

    instances: list[IVCInstance] = field(default_factory=list)
    maxcolors: dict[str, list[int]] = field(default_factory=dict)
    times: dict[str, list[float]] = field(default_factory=dict)
    lower_bounds: list[int] = field(default_factory=list)
    records: list[RunRecord] = field(default_factory=list)
    #: Engine supervision counters (see :class:`repro.engine.GridResult`):
    #: pool rebuilds after worker deaths, cell executions resubmitted after a
    #: crash, and cells adopted from a ``resume_from=`` run log.
    pool_restarts: int = 0
    cells_retried: int = 0
    cells_resumed: int = 0

    @property
    def algorithms(self) -> list[str]:
        """Algorithm names in run order."""
        return list(self.maxcolors)

    @property
    def num_instances(self) -> int:
        """Number of instances in the suite."""
        return len(self.instances)

    @property
    def errors(self) -> list[RunRecord]:
        """Records of the cells that failed (empty for fully clean runs)."""
        return [r for r in self.records if not r.ok]

    def ok_indices(self) -> list[int]:
        """Instance indices where every algorithm cell succeeded."""
        failed = {r.instance_index for r in self.errors}
        return [i for i in range(self.num_instances) if i not in failed]

    def profile(self, best: Sequence[float] | None = None) -> PerformanceProfile:
        """Performance profile of the collected maxcolors.

        Raises :class:`ValueError` when failed cells are present — subset to
        :meth:`ok_indices` first so ``-1`` placeholders cannot masquerade as
        best-in-class quality — and :class:`EmptySuiteError` when there is
        nothing left to profile (no instances, or every instance failed).
        """
        if self.num_instances == 0 or not self.maxcolors:
            raise EmptySuiteError(
                "suite holds no instances (or no algorithms) — nothing to "
                "profile; did every cell get filtered out?"
            )
        if self.errors:
            if not self.ok_indices():
                raise EmptySuiteError(
                    f"every instance has a failed cell ({len(self.errors)} "
                    f"failures over {self.num_instances} instances) — no "
                    "clean instances left to profile; inspect result.errors"
                )
            raise ValueError(
                f"{len(self.errors)} failed cells in the suite; "
                "profile over result.subset(result.ok_indices())"
            )
        values = {a: [float(v) for v in vs] for a, vs in self.maxcolors.items()}
        return performance_profile(values, best=list(best) if best is not None else None)

    def subset(self, keep: Sequence[int]) -> "SuiteResult":
        """Restrict to a subset of instance indices (per-dataset profiles)."""
        keep = list(keep)
        remap = {old: new for new, old in enumerate(keep)}
        return SuiteResult(
            instances=[self.instances[i] for i in keep],
            maxcolors={a: [vs[i] for i in keep] for a, vs in self.maxcolors.items()},
            times={a: [vs[i] for i in keep] for a, vs in self.times.items()},
            lower_bounds=[self.lower_bounds[i] for i in keep],
            records=[
                replace(r, instance_index=remap[r.instance_index])
                for r in self.records
                if r.instance_index in remap
            ],
        )

    def indices_by_metadata(self, key: str, value) -> list[int]:
        """Instance indices whose metadata matches ``key == value``."""
        return [
            i for i, inst in enumerate(self.instances) if inst.metadata.get(key) == value
        ]


@dataclass(frozen=True)
class InstanceHandle:
    """A lightweight stand-in for an :class:`~repro.core.problem.IVCInstance`.

    Harvest artifacts (:mod:`repro.campaign.harvest`) persist only what the
    report builders actually read — the name, stencil shape, vertex count,
    and metadata — so a :class:`SuiteResult` can be reconstructed from disk
    without re-voxelizing the instance grids.  Every report in
    :mod:`repro.reports` works identically over handles and real instances;
    only recomputation (e.g. :func:`solve_suite_optimal`) needs the real
    thing, and rebuilds it from the campaign's deterministic scenario spec.
    """

    name: str = ""
    shape: Optional[tuple[int, ...]] = None
    num_vertices: int = 0
    metadata: dict = field(default_factory=dict)


def suite_result_from_records(
    instances: Sequence[IVCInstance | InstanceHandle],
    algorithms: Sequence[str],
    records: Sequence[RunRecord],
    on_error: str = "raise",
) -> SuiteResult:
    """Aggregate engine records into a :class:`SuiteResult`.

    ``instances`` may be real :class:`~repro.core.problem.IVCInstance`
    objects (the live engine path) or :class:`InstanceHandle` stand-ins (the
    harvest path) — reports only touch the shared fields.

    ``on_error="raise"`` re-raises the first failed cell as
    :class:`SuiteExecutionError` (the strict pre-engine behavior);
    ``on_error="record"`` keeps going, leaving ``-1``/``nan`` placeholders
    and the failing records on :attr:`SuiteResult.records`.
    """
    if on_error not in ("raise", "record"):
        raise ValueError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    names = list(algorithms)
    result = SuiteResult(
        instances=list(instances),
        maxcolors={a: [-1] * len(instances) for a in names},
        times={a: [math.nan] * len(instances) for a in names},
        lower_bounds=[0] * len(instances),
        records=list(records),
    )
    for record in records:
        if not record.ok:
            if on_error == "raise":
                raise SuiteExecutionError(record)
            continue
        result.maxcolors[record.algorithm][record.instance_index] = record.maxcolor
        result.times[record.algorithm][record.instance_index] = record.elapsed
        if record.lower_bound is not None:
            result.lower_bounds[record.instance_index] = record.lower_bound
    return result


def run_suite(
    instances: Iterable[IVCInstance],
    algorithms: Sequence[str] | None = None,
    validate: bool = True,
    *,
    jobs: int | None = 1,
    chunk_size: int | None = None,
    cell_timeout: float | None = None,
    fast_paths: bool | None = None,
    log_path: str | Path | None = None,
    on_error: str = "raise",
    max_cell_retries: int | None = None,
    resume_from: str | Path | None = None,
    context: ExecutionContext | None = None,
) -> SuiteResult:
    """Run every algorithm on every instance, collecting quality and time.

    Parameters
    ----------
    algorithms:
        Names from :data:`~repro.core.algorithms.registry.REGISTRY`;
        defaults to the paper's seven.
    validate:
        Check every coloring (cheap, vectorized); disable only in
        timing-sensitive ablations.
    jobs:
        Worker processes for the batch engine; the default ``1`` runs
        serially (same code path), ``None``/``0`` uses all cores.
    chunk_size:
        Cells per parallel task submission (engine default: an even
        ~4-chunks-per-worker split).
    cell_timeout:
        Optional per-cell wall-clock limit in seconds; exceeding cells
        become ``timeout`` records.
    fast_paths:
        Force the vectorized stencil kernels on (``True``) or off
        (``False``) in every engine worker; ``None`` (default) follows the
        run context's :class:`~repro.runtime.config.RuntimeConfig`
        ``fast_paths`` (explicit argument beats config beats environment).
    log_path:
        Stream per-cell :class:`~repro.engine.records.RunRecord` JSONL to
        this path as the run progresses.
    on_error:
        ``"raise"`` (default) aborts on the first failed cell with
        :class:`SuiteExecutionError`; ``"record"`` finishes the suite and
        reports failures on :attr:`SuiteResult.errors`.
    max_cell_retries:
        Extra attempts each cell gets after a worker crash loses its chunk
        (the engine rebuilds the pool and resubmits only the lost cells).
    resume_from:
        Existing JSONL run log to resume: completed (``ok``/``timeout``)
        cells are adopted, only missing/``error`` cells execute.
    context:
        The :class:`~repro.runtime.context.ExecutionContext` for the run,
        forwarded to :func:`~repro.engine.run_grid` (``None`` = ambient).
    """
    names = list(algorithms) if algorithms is not None else list(ALGORITHMS)
    instances = list(instances)
    records = run_grid(
        instances,
        names,
        jobs=jobs,
        chunk_size=chunk_size,
        validate=validate,
        cell_timeout=cell_timeout,
        fast_paths=fast_paths,
        log_path=log_path,
        max_cell_retries=max_cell_retries,
        resume_from=resume_from,
        context=context,
    )
    result = suite_result_from_records(instances, names, records, on_error=on_error)
    result.pool_restarts = getattr(records, "pool_restarts", 0)
    result.cells_retried = getattr(records, "cells_retried", 0)
    result.cells_resumed = getattr(records, "cells_resumed", 0)
    return result


def solve_suite_optimal(
    result: SuiteResult,
    time_limit: float = 10.0,
) -> tuple[list[int], list[int]]:
    """MILP-solve each instance of a suite (Section VI.D analysis).

    Returns ``(solved_indices, optima)`` for the instances the MILP proved
    optimal within the per-instance time limit — mirroring the paper, where
    a minority of instances stayed unsolved after a day.
    """
    from repro.core.exact.milp import solve_milp

    solved: list[int] = []
    optima: list[int] = []
    for i, instance in enumerate(result.instances):
        best_heuristic = min(result.maxcolors[a][i] for a in result.maxcolors)
        res = solve_milp(instance, time_limit=time_limit, upper_bound=best_heuristic)
        if res.proven_optimal and res.maxcolor is not None:
            solved.append(i)
            optima.append(res.maxcolor)
    return solved, optima
