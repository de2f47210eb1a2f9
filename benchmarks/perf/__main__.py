"""Command line of the benchmark (``python -m benchmarks.perf --help``).

Verbs:

* ``run`` — measure workloads, each in a fresh process; print every metric
  as ``workload metric value unit`` and, last, one JSON summary line;
* ``compare PARENT CHANGE`` — verdicts over two directories of results
  written by ``run --out``;
* ``pin`` — recompute ``pins.json`` from monolithic kernel runs;
* ``exec`` — one workload in this process (what ``run`` starts).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from benchmarks.perf.catalog import WORKLOADS


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers")
    return seed


def _seconds(text: str) -> float:
    seconds = float(text)
    if not seconds > 0:
        raise argparse.ArgumentTypeError("--seconds must be positive")
    return seconds


def parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    verbs = top.add_subparsers(dest="verb", required=True)

    run = verbs.add_parser("run", help="measure workloads in fresh processes")
    run.add_argument("--workload", action="append", choices=list(WORKLOADS),
                     help="repeatable; default: all four")
    run.add_argument("--seed", type=_seed, default=0)
    run.add_argument("--seconds", type=_seconds,
                     help="op time measured per run (default 10, smoke 1)")
    run.add_argument("--scale", choices=("full", "smoke"), default="full")
    run.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                     default=0, help="traced replay: per-layer metrics")
    run.add_argument("--out", type=Path, help="directory to write result files to")

    compare = verbs.add_parser("compare", help="parent vs change verdicts")
    compare.add_argument("parent", type=Path)
    compare.add_argument("change", type=Path)

    verbs.add_parser("pin", help="recompute pins.json (seeds 0 and 1)")

    exe = verbs.add_parser("exec", help=argparse.SUPPRESS)
    exe.add_argument("--workload", choices=list(WORKLOADS), required=True)
    exe.add_argument("--seed", type=_seed, required=True)
    exe.add_argument("--scale", choices=("full", "smoke"), required=True)
    exe.add_argument("--seconds", type=_seconds, required=True)
    exe.add_argument("--trace", action="store_true")
    exe.add_argument("--result", type=Path, required=True)
    return top


def main(argv=None) -> int:
    args = parser().parse_args(argv)
    if args.verb == "compare":
        from benchmarks.perf.compare import compare

        return compare(args.parent, args.change)
    from benchmarks.perf import harness

    if args.verb == "run":
        return harness.run(args)
    if args.verb == "pin":
        return harness.pin()
    return harness.execute(args)


if __name__ == "__main__":
    sys.exit(main())
