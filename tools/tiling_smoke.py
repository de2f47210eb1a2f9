#!/usr/bin/env python
"""CI smoke for the out-of-core tiler: capped memory, diffed vs monolithic.

Colors a synthetic grid (default 2048x2048) through :func:`repro.tiling.
color_tiled` with the process address space soft-capped (``RLIMIT_AS``),
streaming the starts into an ``.npy`` memmap so peak memory tracks one
tile band, not the grid.  The band pass must color each cell once (plus
one carry column per band after the first).  The cap is then restored and
the same grid is colored monolithically; any difference in the starts or
maxcolor fails the run.

Exit status 0 = bit-identical under the cap, 1 = divergence, a second
coloring, or a tiled failure, 2 = usage.  Run from the repo root::

    PYTHONPATH=src python tools/tiling_smoke.py --side 2048 --limit-mb 768
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", type=int, default=2048,
                        help="square grid side (default 2048)")
    parser.add_argument("--tile", type=int, default=512,
                        help="square tile side (default 512)")
    parser.add_argument("--limit-mb", type=int, default=768,
                        help="RLIMIT_AS soft cap during the tiled run, MB")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv[1:])

    from repro.data import SyntheticWeightSource
    from repro.tiling import TilingError, color_tiled

    source = SyntheticWeightSource((args.side, args.side), seed=args.seed)
    workdir = Path(tempfile.mkdtemp(prefix="tiling-smoke-"))
    out = workdir / "starts.npy"

    # Soft-cap the address space for the tiled run only.  The cap must sit
    # above what the interpreter already maps; refuse configurations where
    # it cannot bind anything.
    vm_kb = int(Path("/proc/self/status").read_text()
                .split("VmSize:")[1].split()[0])
    cap = args.limit_mb * 1024 * 1024
    if cap <= vm_kb * 1024:
        print(f"error: --limit-mb {args.limit_mb} is below the current "
              f"address space ({vm_kb // 1024} MB)", file=sys.stderr)
        return 2
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    t0 = perf_counter()
    try:
        tiled = color_tiled(source, tile_shape=(args.tile, args.tile),
                            out=out, assemble=True)
    except (MemoryError, TilingError) as exc:
        print(f"error: tiled run failed under the {args.limit_mb} MB "
              f"address-space cap: {exc!r}", file=sys.stderr)
        return 1
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    total = perf_counter() - t0

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "shape": [args.side, args.side],
        "tile_shape": list(tiled.plan.tile_shape),
        "tiles": len(tiled.plan.tiles),
        "maxcolor": tiled.maxcolor,
        "digest": tiled.digest,
        "limit_mb": args.limit_mb,
        "peak_rss_mb": round(peak_mb, 1),
        "seam_cells": tiled.seam_cells,
        "band_seconds": round(tiled.seam_elapsed, 3),
        "total_seconds": round(total, 3),
    }, indent=2))

    # One coloring: the grid plus one carry column per band after the first.
    once = args.side * args.side + (tiled.seam_bands - 1) * args.side
    if tiled.seam_cells != once:
        print(f"error: the tiler colored {tiled.seam_cells} cells, expected "
              f"{once} for a single band pass", file=sys.stderr)
        return 1

    # Uncapped monolithic reference run over the same weights.
    from repro.core.algorithms.registry import color_with
    from repro.core.problem import IVCInstance

    weights = source.region(((0, args.side), (0, args.side)))
    mono = color_with(IVCInstance.from_grid_2d(weights, name="smoke"), "GLL")
    tiled_starts = np.load(out, mmap_mode="r")
    if tiled.maxcolor != mono.maxcolor or not np.array_equal(
        np.asarray(tiled_starts).ravel(), np.asarray(mono.starts).ravel()
    ):
        print("error: tiled coloring diverged from the monolithic kernel",
              file=sys.stderr)
        return 1
    print(f"tiling smoke: {args.side}x{args.side} bit-identical under "
          f"{args.limit_mb} MB (peak RSS {peak_mb:.0f} MB)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
