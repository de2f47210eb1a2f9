"""The repository's performance benchmark: four workloads, end-to-end and
per-layer metrics, a traced replay, and a noise-aware ``compare`` verb.

Run it from the repository root::

    python3 -m benchmarks.perf run --seed 0                # every workload
    python3 -m benchmarks.perf run --workload color-medium --seed 0 --trace
    python3 -m benchmarks.perf compare PARENT_DIR CHANGE_DIR

``README.md`` next to this file documents the workloads, the metric table,
and how to read ``spans.jsonl``.  Nothing under ``src/`` is modified: the
traced run wraps each layer's public functions from outside
(:mod:`benchmarks.perf.trace`).
"""

from pathlib import Path

#: Bumped whenever a workload, metric or input generator changes meaning;
#: ``compare`` refuses to pair results of different versions.
VERSION = 1

#: The repository root (this file is ``<root>/benchmarks/perf/__init__.py``).
ROOT = Path(__file__).resolve().parents[2]

#: Scratch space for result files, output memmaps and the service spill
#: directory; kept inside the checkout and emptied after each workload.
WORK_DIR = Path(__file__).resolve().parent / ".work"
