"""Tiling benchmark — per-tile-count scaling and the out-of-core headline.

Two studies over synthetic weight grids:

* **scaling** — one grid colored through the tiler at several tile counts
  (plus the monolithic kernel as the 1-tile baseline), verifying bit-
  identity at every point and reporting the band-pass time, total time,
  and throughput.
* **out-of-core headline** — a grid far beyond the monolithic kernel's
  memory appetite (default 16384², ~268 M cells, >12 GB of working arrays
  monolithically) colored in digest-only mode (``assemble=False``), whose
  peak memory is independent of grid size.  Reported: band-pass and total
  wall time, combined digest, maxcolor, peak RSS.

Run standalone (writes the repo-root ``BENCH_tiling.json``)::

    PYTHONPATH=src python benchmarks/bench_tiling.py [--quick] [--out PATH]

``--quick`` shrinks both studies for CI smoke; the committed report comes
from a full run.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _scaling_study(side: int, tile_sides, seed: int) -> dict:
    from repro.core.algorithms.registry import color_with
    from repro.core.problem import IVCInstance
    from repro.data import SyntheticWeightSource
    from repro.tiling import color_tiled

    source = SyntheticWeightSource((side, side), seed=seed)
    weights = source.region(((0, side), (0, side)))
    t0 = perf_counter()
    mono = color_with(IVCInstance.from_grid_2d(weights, name="bench"), "GLL")
    mono_seconds = perf_counter() - t0
    mono_starts = np.asarray(mono.starts).ravel()

    points = []
    for tile_side in tile_sides:
        t0 = perf_counter()
        tiled = color_tiled(source, tile_shape=(tile_side, tile_side))
        elapsed = perf_counter() - t0
        identical = tiled.maxcolor == mono.maxcolor and np.array_equal(
            np.asarray(tiled.starts).ravel(), mono_starts
        )
        points.append({
            "tile_side": tile_side,
            "tiles": len(tiled.plan.tiles),
            "total_seconds": elapsed,
            "band_seconds": tiled.seam_elapsed,
            "cells_per_sec": side * side / elapsed if elapsed else None,
            "vs_monolithic": elapsed / mono_seconds if mono_seconds else None,
            "identical": bool(identical),
        })
    return {
        "side": side,
        "cells": side * side,
        "monolithic_seconds": mono_seconds,
        "maxcolor": int(mono.maxcolor),
        "points": points,
        "all_identical": all(p["identical"] for p in points),
    }


def _out_of_core_study(side: int, tile_side: int, seed: int) -> dict:
    from repro.data import SyntheticWeightSource
    from repro.tiling import color_tiled

    source = SyntheticWeightSource((side, side), seed=seed)
    t0 = perf_counter()
    tiled = color_tiled(source, tile_shape=(side, tile_side), assemble=False)
    elapsed = perf_counter() - t0
    return {
        "side": side,
        "cells": side * side,
        "tile_shape": list(tiled.plan.tile_shape),
        "tiles": len(tiled.plan.tiles),
        "total_seconds": elapsed,
        "band_seconds": tiled.seam_elapsed,
        "cells_per_sec": side * side / elapsed if elapsed else None,
        "maxcolor": int(tiled.maxcolor),
        "digest": tiled.digest,
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "monolithic_working_set_gb": round(side * side * 6 * 8 / 1e9, 1),
    }


def run_tiling_benchmark(*, quick: bool = False, seed: int = 0) -> dict:
    if quick:
        scaling = _scaling_study(512, (512, 256, 128, 64), seed=seed)
        headline = _out_of_core_study(4096, 256, seed=seed)
    else:
        scaling = _scaling_study(2048, (2048, 1024, 512, 256), seed=seed)
        headline = _out_of_core_study(16384, 512, seed=seed)
    return {
        "meta": {
            "tool": "benchmarks/bench_tiling.py",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "quick": quick,
            "seed": seed,
        },
        "scaling": scaling,
        "out_of_core": headline,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grids for CI smoke")
    parser.add_argument("--out", default="BENCH_tiling.json",
                        help="JSON report path ('' skips the file)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    report = run_tiling_benchmark(quick=args.quick, seed=args.seed)
    scaling = report["scaling"]
    print(f"scaling {scaling['side']}x{scaling['side']} "
          f"(monolithic {scaling['monolithic_seconds']:.2f}s):")
    for p in scaling["points"]:
        print(f"  {p['tiles']:>4} tiles: {p['total_seconds']:7.2f}s  "
              f"bands {p['band_seconds']:.2f}s  "
              f"{p['cells_per_sec'] / 1e6:6.2f} Mcells/s  "
              f"identical={p['identical']}")
    ooc = report["out_of_core"]
    print(f"out-of-core {ooc['side']}x{ooc['side']}: {ooc['total_seconds']:.1f}s, "
          f"{ooc['cells_per_sec'] / 1e6:.2f} Mcells/s, "
          f"peak RSS {ooc['peak_rss_mb']} MB "
          f"(monolithic working set ~{ooc['monolithic_working_set_gb']} GB), "
          f"digest {ooc['digest']}")
    if args.out:
        path = Path(args.out)
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {path}")
    if not scaling["all_identical"]:
        print("error: tiled coloring diverged from the monolithic kernel",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
