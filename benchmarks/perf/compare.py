"""``compare PARENT CHANGE``: per-metric verdicts for a candidate change.

Both arguments are directories of untraced result files written by
``run --out``, from runs of the parent and the change made in alternating
pairs.  For every workload and bounded metric it prints each side's median
and quartiles, the change's share of wins over the pairs, and a verdict:

* ``improved`` — the change wins at least 9 of every 10 pairs (ties count
  for neither) and the medians differ by more than the parent's
  interquartile range;
* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — either side's interquartile range, as a share of its
  median, is wider than the bound;
* ``unchanged`` — otherwise.

Results that differ in seed, scale, host ``nproc`` or benchmark version are
refused, and so are smoke-scale results: their noise says nothing about a
change.  The exit code is 2 on refusal, 1 if anything regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Optional

from benchmarks.perf.catalog import Metric, comparable


def load(directory: Path) -> list[dict]:
    """The result records in ``directory``."""
    return [json.loads(path.read_text()) for path in sorted(Path(directory).glob("*.json"))]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(q1: float, q2: float, q3: float) -> float:
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


def judge(metric: Metric, parent: list[float], change: list[float]) -> dict:
    """The verdict on one metric, from values of runs paired by position."""
    p1, p2, p3 = _quartiles(parent)
    c1, c2, c3 = _quartiles(change)
    wins = sum(metric.worse_by(p, c) < 0 for p, c in zip(parent, change))
    pairs = min(len(parent), len(change))
    worse = metric.worse_by(p2, c2)
    if wins >= 0.9 * pairs and abs(c2 - p2) > p3 - p1 and worse < 0:
        verdict = "improved"
    elif worse > metric.bound:
        verdict = "regressed"
    elif max(_spread(p1, p2, p3), _spread(c1, c2, c3)) > metric.bound:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "parent": (p2, p1, p3),
        "change": (c2, c1, c3),
        "wins": wins,
        "pairs": pairs,
        "verdict": verdict,
    }


def refusal(parent: list[dict], change: list[dict]) -> Optional[str]:
    """Why the two sets cannot be compared, or ``None``."""
    if not parent or not change:
        return "both directories must hold result files"
    records = parent + change
    if any(r["traced"] for r in records):
        return "traced results carry no end-to-end metrics"
    for key in ("scale", "nproc", "version"):
        values = {r["provenance"][key] for r in records}
        if len(values) > 1:
            return f"results differ in {key}: {sorted(map(str, values))}"
    if records[0]["provenance"]["scale"] == "smoke":
        return "smoke-scale results measure nothing worth comparing"
    for workload in {r["workload"] for r in records}:
        seeds = [
            sorted(r["provenance"]["seed"] for r in side if r["workload"] == workload)
            for side in (parent, change)
        ]
        if seeds[0] != seeds[1]:
            return f"{workload}: seeds differ ({seeds[0]} vs {seeds[1]})"
    return None


def verdicts(parent: list[dict], change: list[dict]) -> list[dict]:
    """One row per (workload, metric); runs pair up by seed, then age."""
    rows = []
    for workload in sorted({r["workload"] for r in parent}):
        sides = [
            sorted(
                (r for r in side if r["workload"] == workload),
                key=lambda r: (r["provenance"]["seed"], r["started"]),
            )
            for side in (parent, change)
        ]
        for name, metric in comparable(workload).items():
            values = [[r["metrics"][name]["value"] for r in side] for side in sides]
            rows.append({"workload": workload, "metric": name, **judge(metric, *values)})
    return rows


def compare(parent_dir: Path, change_dir: Path, out=sys.stdout) -> int:
    """The ``compare`` verb (see the module docstring)."""
    parent, change = load(parent_dir), load(change_dir)
    problem = refusal(parent, change)
    if problem is not None:
        print(f"compare: refusing: {problem}", file=sys.stderr)
        return 2
    rows = verdicts(parent, change)
    print(
        f"{'workload':<12} {'metric':<15} {'parent median [q1, q3]':>32} "
        f"{'change median [q1, q3]':>32} {'wins':>6}  verdict",
        file=out,
    )
    for row in rows:
        sides = [
            "{:.5g} [{:.5g}, {:.5g}]".format(*row[key]) for key in ("parent", "change")
        ]
        print(
            f"{row['workload']:<12} {row['metric']:<15} {sides[0]:>32} {sides[1]:>32} "
            f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}",
            file=out,
        )
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("improved", "regressed", "unresolved", "unchanged")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()), file=out)
    return 1 if counts["regressed"] else 0
