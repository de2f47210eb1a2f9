"""Tests for the batch execution engine (repro.engine)."""

import signal
import time

import pytest

from repro.core.algorithms.registry import REGISTRY, AlgorithmSpec
from repro.engine import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    RunRecord,
    diff_run_logs,
    read_run_log,
    resolve_jobs,
    run_grid,
)
from repro.experiments import (
    EmptySuiteError,
    SuiteExecutionError,
    SuiteResult,
    run_suite,
)
from tests.conftest import random_2d_instances

ALGOS = ["GLL", "GLF", "BDP"]


def _always_raises(instance):
    raise RuntimeError("injected failure")


def _sleeper(instance):
    time.sleep(5.0)
    raise AssertionError("unreachable")  # pragma: no cover


@pytest.fixture
def crashing_algorithm():
    """Register an always-raising algorithm for the duration of a test."""
    REGISTRY.register(
        AlgorithmSpec("BOOM", _always_raises, needs_geometry=False,
                      is_extension=True, description="test crasher")
    )
    yield "BOOM"
    REGISTRY.unregister("BOOM")


@pytest.fixture
def sleeping_algorithm():
    REGISTRY.register(
        AlgorithmSpec("SLEEP", _sleeper, needs_geometry=False,
                      is_extension=True, description="test sleeper")
    )
    yield "SLEEP"
    REGISTRY.unregister("SLEEP")


class TestRunGrid:
    def test_grid_order_and_contents(self):
        instances = random_2d_instances(count=3, max_dim=5)
        records = run_grid(instances, ALGOS, jobs=1)
        assert len(records) == 3 * len(ALGOS)
        for pos, record in enumerate(records):
            assert record.instance_index == pos // len(ALGOS)
            assert record.algorithm == ALGOS[pos % len(ALGOS)]
            assert record.status == STATUS_OK
            assert record.maxcolor >= record.lower_bound
            assert record.shape == instances[record.instance_index].geometry.shape
            assert record.worker.startswith("pid-")

    def test_serial_and_parallel_identical(self):
        instances = random_2d_instances(count=4, max_dim=5)
        serial = run_grid(instances, ALGOS, jobs=1)
        parallel = run_grid(instances, ALGOS, jobs=2)
        assert [r.maxcolor for r in serial] == [r.maxcolor for r in parallel]
        assert [r.lower_bound for r in serial] == [r.lower_bound for r in parallel]
        assert all(r.status == STATUS_OK for r in parallel)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crashing_cell_is_isolated(self, jobs, crashing_algorithm):
        instances = random_2d_instances(count=2, max_dim=4)
        records = run_grid(instances, ["GLF", crashing_algorithm], jobs=jobs)
        by_algo = {}
        for record in records:
            by_algo.setdefault(record.algorithm, []).append(record)
        assert all(r.status == STATUS_OK for r in by_algo["GLF"])
        assert all(r.status == STATUS_ERROR for r in by_algo[crashing_algorithm])
        assert all("injected failure" in r.error for r in by_algo[crashing_algorithm])

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_cell_timeout_records_timeout(self, sleeping_algorithm):
        instances = random_2d_instances(count=1, max_dim=4)
        records = run_grid(
            instances, ["GLF", sleeping_algorithm], jobs=1, cell_timeout=0.2
        )
        statuses = {r.algorithm: r.status for r in records}
        assert statuses["GLF"] == STATUS_OK
        assert statuses[sleeping_algorithm] == STATUS_TIMEOUT

    def test_capture_starts_roundtrip(self, small_2d):
        import numpy as np

        from repro.core.coloring import Coloring

        (record,) = run_grid([small_2d], ["BDP"], jobs=1, capture_starts=True)
        rebuilt = Coloring(small_2d, np.asarray(record.starts, dtype=np.int64))
        assert rebuilt.check().maxcolor == record.maxcolor

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1


class TestRunLog:
    def test_jsonl_streaming_roundtrip(self, tmp_path):
        instances = random_2d_instances(count=2, max_dim=4)
        log = tmp_path / "run.jsonl"
        records = run_grid(instances, ALGOS, jobs=1, log_path=log)
        loaded = read_run_log(log)
        assert sorted(r.to_json().items() for r in loaded) == sorted(
            r.to_json().items() for r in records
        )

    def test_diff_run_logs(self):
        a = RunRecord(0, "inst", (2, 2), "GLF", "ok", maxcolor=10)
        b = RunRecord(0, "inst", (2, 2), "GLF", "ok", maxcolor=12)
        same = RunRecord(0, "inst", (2, 2), "BDP", "ok", maxcolor=9)
        assert diff_run_logs([a, same], [b, same]) == [("inst", "GLF", 10, 12)]
        assert diff_run_logs([a], [a]) == []


class TestSuiteIntegration:
    def test_suite_serial_parallel_identical_maxcolors(self):
        instances = random_2d_instances(count=4, max_dim=5)
        serial = run_suite(instances, algorithms=ALGOS, jobs=1)
        parallel = run_suite(instances, algorithms=ALGOS, jobs=2)
        assert serial.maxcolors == parallel.maxcolors
        assert serial.lower_bounds == parallel.lower_bounds

    def test_error_cell_recorded_not_fatal(self, crashing_algorithm):
        instances = random_2d_instances(count=3, max_dim=4)
        result = run_suite(
            instances, algorithms=["GLF", crashing_algorithm],
            jobs=2, on_error="record",
        )
        assert len(result.errors) == 3
        assert all(r.algorithm == crashing_algorithm for r in result.errors)
        assert result.maxcolors["GLF"] != [-1, -1, -1]
        assert result.maxcolors[crashing_algorithm] == [-1, -1, -1]
        assert result.ok_indices() == []  # every instance has a failed cell

    def test_error_cell_raises_by_default(self, crashing_algorithm):
        instances = random_2d_instances(count=1, max_dim=4)
        with pytest.raises(SuiteExecutionError, match="injected failure"):
            run_suite(instances, algorithms=[crashing_algorithm])

    def test_profile_refuses_failed_cells(self, crashing_algorithm):
        instances = random_2d_instances(count=2, max_dim=4)
        result = run_suite(
            instances, algorithms=["GLF", crashing_algorithm],
            jobs=1, on_error="record",
        )
        # The crasher fails on every instance, so nothing is left to
        # profile — the typed empty-suite error, not a cryptic ValueError
        # from the profile math.
        with pytest.raises(EmptySuiteError, match="every instance"):
            result.profile()

    def test_profile_refuses_partially_failed_suite(self, crashing_algorithm):
        instances = random_2d_instances(count=2, max_dim=4)
        result = run_suite(
            instances, algorithms=["GLF", crashing_algorithm],
            jobs=1, on_error="record",
        )
        # Graft clean cells for instance 1 so only instance 0 is dirty: the
        # failed-cells guard (subset to ok_indices first) still applies.
        clean = run_suite(instances[1:], algorithms=["GLF", "BD"], jobs=1)
        mixed = SuiteResult(
            instances=result.instances,
            maxcolors={
                "GLF": result.maxcolors["GLF"],
                crashing_algorithm: [
                    result.maxcolors[crashing_algorithm][0],
                    clean.maxcolors["BD"][0],
                ],
            },
            times=result.times,
            lower_bounds=result.lower_bounds,
            records=[r for r in result.records if r.instance_index == 0],
        )
        assert mixed.ok_indices() == [1]
        with pytest.raises(ValueError, match="failed cells"):
            mixed.profile()

    def test_subset_remaps_records(self):
        instances = random_2d_instances(count=3, max_dim=4)
        result = run_suite(instances, algorithms=["GLF"], jobs=1)
        sub = result.subset([2])
        assert [r.instance_index for r in sub.records] == [0]
        assert sub.records[0].instance == instances[2].name


def test_worker_initializer_loads_the_compiled_loop():
    # The library is built and loaded before any cell is timed, in every
    # worker and on the serial path (which runs the same initializer).
    from repro.engine import executor
    from repro.kernels import native
    from repro.runtime.context import ExecutionContext

    native._library.cache_clear()
    try:
        executor._init_worker([], False, None, False, context=ExecutionContext())
        assert native._library.cache_info().currsize == 1
    finally:
        executor._STATE = None
