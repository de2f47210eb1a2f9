#!/usr/bin/env python
"""Derive each algorithm's auto-mode kernel crossover from the sweep campaigns.

The sweep is four campaigns: ``campaigns/crossover_{2d,3d}_{on,off}.toml``.
Each on/off pair times the same instances with ``fast_paths = "on"``
(kernels) and ``"off"`` (reference loops).  This script pairs the harvested
runs, pools the cell timings of one or more such rounds (run them with the
on/off order alternating, so drift on the host hits both paths alike),
takes the per-shape median of each path, and picks per algorithm the
``kernel_from`` vertex count whose rule "kernel iff ``n >= kernel_from``"
never takes a path more than ``TOLERANCE`` times slower than the other one
at any swept shape.  Among such thresholds it keeps the one with the least
total cost relative to the per-shape best path (ties: the smallest).  The
result, with host meta, is written as ``BENCH_crossover.json``;
``AlgorithmSpec.kernel_from`` in the default registry copies its values.

Exit status 0 = every algorithm has a violation-free threshold, 1 = some
algorithm has none (the least-cost threshold is still written, with its
violations listed), 2 = usage.  Run from the repo root after running and
harvesting the four campaigns of each round into ``DIR/{2d,3d}_{on,off}``::

    for c in 2d_on 2d_off 3d_on 3d_off; do
      PYTHONPATH=src python -m repro.cli campaign run \\
          campaigns/crossover_$c.toml --out-dir DIR/$c --jobs 1
      PYTHONPATH=src python -m repro.cli campaign harvest DIR/$c
    done
    python tools/kernel_crossover.py DIR [DIR ...] --out BENCH_crossover.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

#: A path may take at most this multiple of the other path's median time.
TOLERANCE = 1.10

HALVES = ("2d", "3d")


Samples = dict[tuple[str, tuple[int, ...]], tuple[list, list]]


def add_samples(samples: Samples, on: dict, off: dict) -> None:
    """Add one on/off harvest pair's cell timings to ``samples``, keyed by
    ``(algorithm, shape)`` as ``(kernel seconds, reference seconds)``.

    Both harvests must cover the same plan (the same instances and
    algorithms), and every cell must have succeeded with the same maxcolor
    on both paths.
    """
    if on["instances"] != off["instances"] or on["algorithms"] != off["algorithms"]:
        raise ValueError("the on/off harvests do not cover the same plan")
    for a, b in zip(on["records"], off["records"]):
        if (a["instance_index"], a["algorithm"]) != (
            b["instance_index"], b["algorithm"]
        ):
            raise ValueError("the on/off harvests list their cells in different orders")
        if a["status"] != "ok" or b["status"] != "ok":
            raise ValueError(f"failed cell: {a['instance']} x {a['algorithm']}")
        if a["maxcolor"] != b["maxcolor"]:
            raise ValueError(
                f"kernel and reference disagree on {a['instance']} x {a['algorithm']}"
            )
        kernel, reference = samples.setdefault(
            (a["algorithm"], tuple(a["shape"])), ([], [])
        )
        kernel.append(a["elapsed"])
        reference.append(b["elapsed"])


def shape_points(samples: Samples) -> dict[str, list[dict]]:
    """Per-algorithm, per-shape medians, sorted by size then shape."""
    points: dict[str, list[dict]] = {}
    for (algorithm, shape), (kernel, reference) in samples.items():
        n = 1
        for side in shape:
            n *= side
        points.setdefault(algorithm, []).append(
            {
                "shape": list(shape),
                "n": n,
                "samples": len(kernel),
                "kernel_s": statistics.median(kernel),
                "reference_s": statistics.median(reference),
            }
        )
    for pts in points.values():
        pts.sort(key=lambda p: (p["n"], p["shape"]))
    return points


def violations(
    points: list[dict], kernel_from: int, tolerance: float = TOLERANCE
) -> list[dict]:
    """Points where the rule "kernel iff ``n >= kernel_from``" picks a path
    more than ``tolerance`` times slower than the other one."""
    out = []
    for p in points:
        chosen, other = (
            (p["kernel_s"], p["reference_s"])
            if p["n"] >= kernel_from
            else (p["reference_s"], p["kernel_s"])
        )
        if chosen > tolerance * other:
            out.append(p)
    return out


def choose_kernel_from(points: list[dict], tolerance: float = TOLERANCE) -> int:
    """The violation-free threshold of least relative cost (ties: smallest).

    Candidates are the swept sizes plus one past the largest (never the
    kernel).  With no violation-free candidate, the least-cost one wins.
    """
    sizes = sorted({p["n"] for p in points})
    candidates = sizes + [sizes[-1] + 1]

    def cost(threshold: int) -> float:
        return sum(
            (p["kernel_s"] if p["n"] >= threshold else p["reference_s"])
            / max(min(p["kernel_s"], p["reference_s"]), 1e-12)
            for p in points
        )

    feasible = [t for t in candidates if not violations(points, t, tolerance)]
    return min(feasible or candidates, key=lambda t: (cost(t), t))


def _harvest(path: Path) -> dict:
    return json.loads((path / "harvest.json").read_text())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sweep_dirs", type=Path, nargs="+",
                        help="directories each holding one harvested "
                        "{2d,3d}_{on,off} round; rounds are pooled")
    parser.add_argument("--out", type=Path, default=Path("BENCH_crossover.json"))
    args = parser.parse_args(argv[1:])

    import numpy as np

    samples: Samples = {}
    campaigns = {}
    for sweep_dir in args.sweep_dirs:
        for half in HALVES:
            on, off = (_harvest(sweep_dir / f"{half}_{m}") for m in ("on", "off"))
            add_samples(samples, on, off)
            for mode, harvest in (("on", on), ("off", off)):
                campaigns[f"{half}_{mode}"] = {
                    "campaign": harvest["campaign"],
                    "plan_fingerprint": harvest["plan_fingerprint"],
                    "git": harvest.get("git"),
                }
    points = shape_points(samples)

    result = {}
    failed = []
    for algorithm, pts in points.items():
        kernel_from = choose_kernel_from(pts)
        bad = violations(pts, kernel_from)
        if bad:
            failed.append(algorithm)
        result[algorithm] = {
            "kernel_from": kernel_from,
            "violations": bad,
            "points": pts,
        }
        print(f"{algorithm:8s} kernel_from={kernel_from:6d}  violations={len(bad)}")

    doc = {
        "meta": {
            "tool": "tools/kernel_crossover.py",
            "tolerance": TOLERANCE,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "campaigns": campaigns,
            "rounds": len(args.sweep_dirs),
        },
        "algorithms": result,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if failed:
        print(f"no violation-free threshold for: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
