"""The benchmark end to end at smoke scale, and its agreement with
``BENCHMARK.json``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from benchmarks.perf import ROOT
from benchmarks.perf.catalog import END_TO_END, PER_LAYER, WORKLOADS
from benchmarks.perf.harness import kind_time_s
from benchmarks.perf.layers import layer_metrics
from benchmarks.perf.workloads import Op

BENCHMARK = ROOT / "BENCHMARK.json"


def test_benchmark_json_matches_the_catalog():
    spec = json.loads(BENCHMARK.read_text())
    assert spec["paths"] == ["benchmarks/perf"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    } == {m.name: (m.unit, m.better, m.bound) for m in END_TO_END.values()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        m.name: (m.unit, m.better) for m in PER_LAYER.values()
    }
    assert max(m.bound for m in END_TO_END.values()) == END_TO_END["setup_s"].bound


def test_kind_time_reads_each_kind_at_its_median_or_its_fastest():
    ops = [Op("a", seconds, 1) for seconds in (1.0, 2.0, 9.0)] + [Op("b", 5.0, 1)]
    assert kind_time_s(ops) == 3 * 2.0 + 5.0
    assert kind_time_s(ops, min) == 3 * 1.0 + 5.0


def test_every_layer_metric_is_derived_even_when_idle():
    metrics = layer_metrics([], {})
    assert set(metrics) == set(PER_LAYER) - {"trace.overhead"}
    assert all(value == 0 for value in metrics.values())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "run", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_pass_of_every_workload(trace):
    started = time.monotonic()
    proc = _run("--scale", "smoke", "--seed", "3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    reported = PER_LAYER if trace == "1" else END_TO_END
    assert set(summary["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in reported}
    for workload in WORKLOADS:
        for name in reported:
            assert any(line.startswith(f"{workload} {name} ") for line in lines)
    if trace == "1":
        # Layers predicted idle record no calls.
        idle = {
            "color-medium": ("halo", "tiling", "incremental", "frames", "durability"),
            "tiled-ooc": ("api", "wavefront", "incremental", "frames"),
            "serve-mixed": ("api", "halo", "tiling"),
        }
        for workload, layers in idle.items():
            for layer in layers:
                assert summary["metrics"][f"{workload}.{layer}.calls"]["value"] == 0
    assert time.monotonic() - started < 90


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "perf", tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    proc = _run("--workload", "color-medium", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
