"""Verdicts and refusals of the ``compare`` verb, on synthetic numbers."""

from __future__ import annotations

import io
import json

import pytest

from benchmarks.perf.catalog import END_TO_END, EXTRA, comparable
from benchmarks.perf.compare import compare, judge, refusal

THROUGHPUT = END_TO_END["cells_per_s"]  # higher is better, bound 0.25
LATENCY = EXTRA[None]["op_p50_ms"]  # lower is better, bound 0.10


@pytest.mark.parametrize(
    "metric, parent, change, verdict",
    [
        # Wins 10 of 10 and the medians differ by more than the parent's IQR.
        (THROUGHPUT, [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [110, 111, 109, 110, 112, 108, 110, 111, 109, 110], "improved"),
        (LATENCY, [10.0] * 10, [9.0] * 10, "improved"),
        # A median worse by more than the bound.
        (THROUGHPUT, [100] * 10, [70] * 10, "regressed"),
        (LATENCY, [10.0] * 10, [13.0] * 10, "regressed"),
        # Spread wider than the bound on either side.
        (THROUGHPUT, [60, 100, 140, 100, 60, 140, 100, 60, 140, 100],
         [100] * 10, "unresolved"),
        # Slightly better, but winning only 7 of 10 pairs.
        (LATENCY, [10.0] * 10, [9.8] * 7 + [10.2] * 3, "unchanged"),
        (THROUGHPUT, [100, 101, 99, 100, 100], [101, 99, 100, 100, 101], "unchanged"),
    ],
)
def test_verdicts(metric, parent, change, verdict):
    assert judge(metric, parent, change)["verdict"] == verdict


def test_fail_ratio_has_no_slack():
    metric = comparable("color-medium")["fail_ratio"]
    assert judge(metric, [0.0] * 5, [0.0] * 5)["verdict"] == "unchanged"
    assert judge(metric, [0.0] * 5, [0.0] * 4 + [0.01])["verdict"] == "unresolved"
    assert judge(metric, [0.0] * 5, [0.01] * 5)["verdict"] == "regressed"


def _record(workload="color-medium", seed=0, scale="full", nproc=2, version=1,
            started=0.0, value=100.0):
    units = comparable(workload)
    return {
        "workload": workload,
        "traced": False,
        "started": started,
        "provenance": {"seed": seed, "scale": scale, "nproc": nproc, "version": version},
        "metrics": {
            name: {"value": 0.0 if name == "fail_ratio" else value, "unit": m.unit}
            for name, m in units.items()
        },
    }


def test_refuses_smoke_scale_and_mismatched_runs():
    assert refusal([_record(scale="smoke")], [_record(scale="smoke")]) is not None
    assert "seed" in refusal([_record(seed=0)], [_record(seed=1)])
    assert "nproc" in refusal([_record(nproc=2)], [_record(nproc=4)])
    assert "version" in refusal([_record(version=1)], [_record(version=2)])
    assert refusal([_record()], [_record()]) is None


def _write(directory, records):
    directory.mkdir()
    for i, record in enumerate(records):
        (directory / f"r{i}.json").write_text(json.dumps(record))
    return directory


def test_compare_reads_directories_and_sets_exit_code(tmp_path):
    parent = _write(tmp_path / "parent", [_record(started=i) for i in range(5)])
    same = _write(tmp_path / "same", [_record(started=i) for i in range(5)])
    worse = _write(tmp_path / "worse", [_record(started=i, value=50.0) for i in range(5)])
    smoke = _write(tmp_path / "smoke", [_record(scale="smoke")])

    out = io.StringIO()
    assert compare(parent, same, out) == 0
    assert "0 improved, 0 regressed, 0 unresolved" in out.getvalue()
    assert compare(parent, worse, io.StringIO()) == 1
    assert compare(smoke, smoke, io.StringIO()) == 2
