"""Recolor benchmark — sparse-delta incremental recoloring vs from-scratch.

The perf half of the ``repro.incremental`` acceptance test: for each (shape,
algorithm, dirty-density) cell, apply a random sparse weight delta to a
colored grid and time :func:`~repro.incremental.engine.recolor_grid` against
:func:`~repro.incremental.engine.full_recolor`, asserting the two colorings
are bit-identical every single rep.  Densities span four orders of
magnitude so the sweep shows the regimes: GLF's cone walk wins at the
sparse end (its weight-order DAG is shallow) and routes to the fallback at
the dense end, while the GLL and GZO suffix passes cost at most one kernel
pass at every density and never fall back.

A full recolor is timed twice per rep, because its cost depends on what is
cached: *cold* is the first call on the shape in a fresh
:class:`~repro.runtime.context.ExecutionContext` (geometry, layout and
schedule all built), *warm* a second call on the same shape and weights in
that context (everything cached, GLF's weight-order schedule included).
Each row reports medians over its reps.

The pytest entry runs a small smoke sweep and writes
``BENCH_recolor.json`` under the artifact root (``out/benchmarks/``,
see ``conftest.out_dir``); the committed repo-root
``BENCH_recolor.json`` holds the full-size sweep
(``python benchmarks/bench_recolor.py``) on 512x512 and 40^3 grids.
"""

import json
import os
import platform
import sys
from time import perf_counter

import numpy as np

DENSITIES = (1e-4, 1e-3, 0.01, 0.05, 0.25)
ALGORITHMS = ("GLL", "GLF", "GZO")
FULL_SHAPES = ((512, 512), (40, 40, 40))
SMOKE_SHAPES = ((64, 64), (12, 12, 12))


def _bench_cell(shape, algorithm, density, reps, seed, max_weight=100):
    from repro.incremental.engine import full_recolor, recolor_grid
    from repro.runtime.context import ExecutionContext

    rng = np.random.default_rng(seed)
    weights = rng.integers(1, max_weight + 1, size=shape, dtype=np.int64)
    n = weights.size
    dirty_cells = max(1, int(round(density * n)))

    base = full_recolor(weights, algorithm)
    incr, cold, warm = [], [], []
    fallbacks = 0
    identical = True
    current, starts = weights, base
    for _ in range(reps):
        idx = rng.choice(n, size=dirty_cells, replace=False)
        new_weights = current.copy()
        new_weights.ravel()[idx] = rng.integers(
            1, max_weight + 1, size=dirty_cells, dtype=np.int64
        )
        fresh = ExecutionContext()
        t0 = perf_counter()
        truth = full_recolor(new_weights, algorithm, context=fresh)
        t1 = perf_counter()
        full_recolor(new_weights, algorithm, context=fresh)
        t2 = perf_counter()
        outcome = recolor_grid(new_weights, starts, idx, algorithm=algorithm)
        t3 = perf_counter()
        cold.append(t1 - t0)
        warm.append(t2 - t1)
        incr.append(t3 - t2)
        if outcome.mode == "fallback":
            fallbacks += 1
        if not np.array_equal(outcome.starts, truth):
            identical = False
        current, starts = new_weights, truth
    # Medians, and speedups as the median of each rep's ratio: the three
    # calls of a rep run back to back, so a slow spell on a shared host
    # tends to hit all of them.
    incr, cold, warm = np.array(incr), np.array(cold), np.array(warm)
    return {
        "shape": list(shape),
        "dim": len(shape),
        "algorithm": algorithm,
        "cells": int(n),
        "density": density,
        "dirty_cells": int(dirty_cells),
        "reps": reps,
        "incremental_seconds": float(np.median(incr)),
        "full_seconds_cold": float(np.median(cold)),
        "full_seconds_warm": float(np.median(warm)),
        "speedup_cold": float(np.median(cold / incr)),
        "speedup_warm": float(np.median(warm / incr)),
        "fallbacks": fallbacks,
        "identical": identical,
    }


def run_recolor_benchmark(
    shapes=FULL_SHAPES,
    algorithms=ALGORITHMS,
    densities=DENSITIES,
    reps=5,
    seed=0,
):
    results = []
    for shape in shapes:
        for algorithm in algorithms:
            for density in densities:
                results.append(
                    _bench_cell(shape, algorithm, density, reps, seed)
                )
    report = {
        "meta": {
            "tool": "python benchmarks/bench_recolor.py",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "reps": reps,
            "seed": seed,
            "algorithms": list(algorithms),
            "densities": list(densities),
        },
        "results": results,
        "all_identical": all(r["identical"] for r in results),
    }
    return report


def format_recolor_table(report):
    header = (
        f"{'shape':>12} {'alg':>4} {'density':>8} {'dirty':>7} "
        f"{'incr ms':>9} {'cold ms':>9} {'warm ms':>9} {'vs warm':>8} "
        f"{'fallback':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in report["results"]:
        shape = "x".join(str(d) for d in r["shape"])
        lines.append(
            f"{shape:>12} {r['algorithm']:>4} {r['density']:>8g} "
            f"{r['dirty_cells']:>7} {r['incremental_seconds'] * 1e3:>9.2f} "
            f"{r['full_seconds_cold'] * 1e3:>9.2f} "
            f"{r['full_seconds_warm'] * 1e3:>9.2f} {r['speedup_warm']:>7.2f}x "
            f"{r['fallbacks']:>5}/{r['reps']}"
        )
    return "\n".join(lines)


def test_recolor_speedup_smoke(benchmark):
    from benchmarks.conftest import emit, out_dir

    report = benchmark.pedantic(
        lambda: run_recolor_benchmark(shapes=SMOKE_SHAPES, reps=2),
        rounds=1,
        iterations=1,
    )
    emit("recolor speedups", format_recolor_table(report))
    d = out_dir()
    d.mkdir(parents=True, exist_ok=True)
    (d / "BENCH_recolor.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    # The hard guarantee at any scale: incremental == from-scratch, every
    # rep, fallback reps included.
    assert report["all_identical"], [
        r for r in report["results"] if not r["identical"]
    ]
    # The dense end must exercise the fallback path (cone budget).
    assert any(
        r["fallbacks"] > 0 for r in report["results"] if r["density"] >= 0.05
    )


def main() -> int:
    from pathlib import Path

    report = run_recolor_benchmark()
    print(format_recolor_table(report))
    out = Path(__file__).resolve().parents[1] / "BENCH_recolor.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out}")

    ok = report["all_identical"]
    if not ok:
        print("FAIL: incremental diverged from full recolor", file=sys.stderr)
    # Acceptance: >=5x on the 512x512 sparse end (<=1% dirty) for at least
    # one supported algorithm, GLL's band pass never slower than 0.95x of a
    # warm full recolor, GZO's suffix pass never falling back, and the
    # fallback engaging at high density.  GZO has no speed gate: its suffix
    # averages ~0.8 of the grid, so it runs near a warm full recolor.
    sparse = [
        r for r in report["results"]
        if r["shape"] == [512, 512] and r["density"] <= 0.01
    ]
    if not any(r["speedup_warm"] and r["speedup_warm"] >= 5.0 for r in sparse):
        print("FAIL: no >=5x sparse-delta speedup on 512x512", file=sys.stderr)
        ok = False
    slow = [
        r for r in report["results"]
        if r["algorithm"] == "GLL" and r["speedup_warm"] < 0.95
    ]
    if slow:
        print(f"FAIL: {len(slow)} GLL rows below 0.95x of a warm full recolor",
              file=sys.stderr)
        ok = False
    gzo_fallbacks = sum(
        r["fallbacks"] for r in report["results"] if r["algorithm"] == "GZO"
    )
    if gzo_fallbacks:
        print(f"FAIL: {gzo_fallbacks} GZO deltas fell back", file=sys.stderr)
        ok = False
    dense = [r for r in report["results"] if r["density"] >= 0.05]
    if not any(r["fallbacks"] > 0 for r in dense):
        print("FAIL: fallback never engaged at high density", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
