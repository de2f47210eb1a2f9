"""Process orchestration: one fresh process per workload run, results out.

The ``run`` verb (:func:`run`) never imports the program.  For each
workload it starts ``python -m benchmarks.perf exec ...`` in a new process,
so caches and ``ru_maxrss`` start clean, waits for it, checks its output
digest against ``pins.json``, and prints every metric as
``workload metric value unit``.  The last line of standard output is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).

With tracing on, the workload runs with the layer wrappers installed (one
set-up instead of three) and reports the per-layer metrics.  Every op is
made twice, on inputs of the same kind, once with the wrappers attached and
once with them detached (see :func:`benchmarks.perf.workloads.sides`), so
``trace.overhead`` is measured in one process, where both sides see the
same drift in the host's speed: the op time with wrappers over that
without, minus 1, each read at the fastest op of each kind
(:func:`kind_time_s`).
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Optional

from benchmarks.perf import ROOT, VERSION, WORK_DIR
from benchmarks.perf.catalog import END_TO_END, PER_LAYER, WORKLOADS, comparable

PINS = Path(__file__).resolve().parent / "pins.json"

#: Set-ups per untraced run (``setup_s`` is their median); a traced run
#: sets up once.
SETUP_REPS = 3

#: Default measured seconds per run, by scale.
DEFAULT_SECONDS = {"full": 15.0, "smoke": 1.0}

#: A single workload run may take this long before it is killed.
CHILD_TIMEOUT = 170.0


# ------------------------------------------------------------ child side
def _percentile(values: list[float], p: float) -> float:
    import numpy as np

    return float(np.percentile(values, p)) if values else 0.0


def _peak_rss_mb() -> float:
    import resource

    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def kind_time_s(ops, pick=median) -> float:
    """The op time of ``ops`` with each op's time replaced by ``pick`` of
    the times of its kind.

    With the median it is the run's *typical* time, which one op slowed by
    a burst of load from elsewhere on the host cannot move.  With ``min``
    it is the time of the least disturbed ops: load from elsewhere only
    ever slows an op, so the fastest of each kind isolates a fixed extra
    cost per call, such as the trace wrappers'.
    """
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op.seconds)
    return sum(len(times) * pick(times) for times in by_kind.values())


def end_to_end(workload: str, outcome) -> dict[str, float]:
    """The untraced metrics of one workload run: ``catalog.END_TO_END``
    and the workload's extras, except ``fail_ratio``."""
    ops = outcome.ops
    seconds = [op.seconds for op in ops]
    typical = kind_time_s(ops)
    metrics = {
        "setup_s": median(outcome.setup_s),
        "cells_per_s": sum(op.cells for op in ops) / typical,
        "op_p50_ms": 1000.0 * _percentile(seconds, 50),
        "op_p90_ms": 1000.0 * _percentile(seconds, 90),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if workload == "serve-mixed":
        color = [op.seconds for op in ops if op.kind.startswith("color")]
        recolor = [op.seconds for op in ops if op.kind.startswith("recolor")]
        metrics["requests_per_s"] = len(ops) / typical
        metrics["color_p50_ms"] = 1000.0 * _percentile(color, 50)
        metrics["color_p99_ms"] = 1000.0 * _percentile(color, 99)
        metrics["recolor_p50_ms"] = 1000.0 * _percentile(recolor, 50)
        metrics["recolor_p95_ms"] = 1000.0 * _percentile(recolor, 95)
    return metrics


def execute(args) -> int:
    """The ``exec`` verb: run one workload in this process, write its result."""
    import numpy as np

    from benchmarks.perf import layers, workloads
    from benchmarks.perf.trace import Tracer, write_spans

    tracer = Tracer()
    if args.trace:
        layers.install(tracer)
    outcome = workloads.run(
        args.workload,
        args.scale,
        seed=args.seed,
        # A traced run makes every op twice, so each side covers as much
        # work as an untraced run.
        seconds=2 * args.seconds if args.trace else args.seconds,
        setup_reps=1 if args.trace else SETUP_REPS,
        tracer=tracer,
        workdir=args.result.parent,
    )
    result = {
        "digest": outcome.digest,
        "errors": outcome.errors,
        "attempted": len(outcome.ops),
        "failed": sum(not op.ok for op in outcome.ops),
        "phases": outcome.phases,
        "numpy": np.__version__,
    }
    if args.trace:
        spans = tracer.spans + outcome.spans
        metrics = layers.layer_metrics(spans, outcome.counts)
        with_wrappers = kind_time_s([op for op in outcome.ops if op.traced], min)
        without = kind_time_s([op for op in outcome.ops if not op.traced], min)
        metrics["trace.overhead"] = with_wrappers / without - 1.0
        result["layers"] = metrics
        write_spans(args.result.with_name("spans.jsonl"), spans)
    else:
        result["metrics"] = end_to_end(args.workload, outcome)
    args.result.write_text(json.dumps(result))
    return 0


# ------------------------------------------------------------ parent side
def _child_env(workdir: Path) -> dict[str, str]:
    """The environment of a workload process: the sources on the path,
    temporary files inside the checkout, no ``REPRO_*`` overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = str(workdir)
    return env


def _spawn(workload: str, workdir: Path, *, seed: int, scale: str, seconds: float,
           trace: bool) -> dict:
    """Run ``exec`` for one workload in a new process (session); kill the
    whole process group if it overruns."""
    result = workdir / "result.json"
    cmd = [
        sys.executable, "-m", "benchmarks.perf", "exec",
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--seconds", repr(seconds), "--result", str(result),
    ]
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(workdir), stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:  # whatever the workload left running in its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise RuntimeError(f"{workload}: exceeded {CHILD_TIMEOUT:.0f}s")
    if code != 0 or not result.exists():
        raise RuntimeError(f"{workload}: workload process exited with code {code}")
    return json.loads(result.read_text())


def _git() -> dict:
    """Commit and dirty flag, when the checkout is a git work tree."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*cmd: str) -> str:
        return subprocess.run(
            ["git", "--no-optional-locks", *cmd], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True,
        ).stdout

    try:
        return {
            "commit": git("rev-parse", "HEAD").strip(),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
        }
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}


def provenance(seed: int, scale: str) -> dict:
    """Where and on what a result was measured."""
    return {
        **_git(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "scale": scale,
        "version": VERSION,
    }


def load_pins() -> dict:
    """``{workload: {seed: digest}}`` for the full-scale runs."""
    return json.loads(PINS.read_text())["digests"] if PINS.exists() else {}


def _measure(workload: str, *, seed: int, scale: str, seconds: float, trace: bool,
             pins: dict) -> dict:
    """One workload, measured in fresh processes; the result record."""
    workdir = WORK_DIR / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    started = time.time()
    try:
        result = _spawn(workload, workdir, seed=seed, scale=scale, seconds=seconds,
                        trace=trace)
        errors = list(result["errors"])
        pin = pins.get(workload, {}).get(str(seed)) if scale == "full" else None
        if pin is not None and result["digest"] != pin:
            errors.append(f"digest {result['digest']} != pinned {pin}")
        attempted = result["attempted"]
        failed = attempted if errors else result["failed"]
        record = {
            "workload": workload,
            "traced": trace,
            "started": started,
            "provenance": provenance(seed, scale),
            "numpy": result["numpy"],
            "phases": result["phases"],
            "digest": result["digest"],
            "pin": pin,
            "errors": errors,
            "attempted": attempted,
            "failed": failed,
            "correct": not errors,
        }
        if trace:
            record["metrics"] = {
                name: {"value": result["layers"][name], "unit": PER_LAYER[name].unit}
                for name in PER_LAYER
            }
            spans = workdir / "spans.jsonl"
            record["spans"] = spans.read_text() if spans.exists() else ""
        else:
            values = {**result["metrics"], "fail_ratio": failed / attempted}
            record["metrics"] = {
                name: {"value": values[name], "unit": metric.unit}
                for name, metric in comparable(workload).items()
            }
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args) -> int:
    """The ``run`` verb (see the module docstring)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmarks.perf: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else DEFAULT_SECONDS[args.scale]
    pins = load_pins()
    out_dir: Optional[Path] = args.out
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    workloads = args.workload or list(WORKLOADS)
    for workload in workloads:
        try:
            record = _measure(workload, seed=args.seed, scale=args.scale,
                              seconds=seconds, trace=bool(args.trace), pins=pins)
        except RuntimeError as exc:
            print(f"benchmarks.perf: {exc}", file=sys.stderr)
            return 1
        for message in record["errors"]:
            print(f"{workload} CHECK FAILED: {message}", file=sys.stderr)
        for name, metric in record["metrics"].items():
            print(f"{workload} {name} {metric['value']!r} {metric['unit']}")
        if out_dir is not None:
            spans = record.pop("spans", "")
            stem = f"{workload}.seed{args.seed}.{time.time_ns()}"
            (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
            if spans:
                (out_dir / f"{stem}.spans.jsonl").write_text(spans)
        summary["correct"] &= record["correct"]
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        reported = PER_LAYER if args.trace else END_TO_END
        for name in reported:
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            summary["metrics"][key] = record["metrics"][name]
    print(json.dumps(summary))
    return 0


#: The seeds ``pins.json`` holds digests for.
PINNED_SEEDS = (0, 1)


def pin() -> int:
    """The ``pin`` verb: recompute ``pins.json``."""
    from benchmarks.perf import workloads
    from repro.runtime.context import ExecutionContext, use_context

    digests: dict = {}
    for workload in WORKLOADS:
        for seed in PINNED_SEEDS:
            with use_context(ExecutionContext.from_env()):
                digest = workloads.pin(workload, seed)
            digests.setdefault(workload, {})[str(seed)] = digest
            print(f"{workload} seed {seed} {digest}")
    PINS.write_text(json.dumps({"version": VERSION, "digests": digests}, indent=1) + "\n")
    return 0
