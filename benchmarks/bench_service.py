"""Service benchmark — caching, coalescing, and horizontal scaling.

The serving half of the online-service acceptance test, in two parts.

**Part 1 — cached vs the uncached baseline.**  Two server configurations
run the same repeated-shape workload (the interactive-STKDE pattern: a
handful of grid geometries re-requested over and over):

* **baseline** — result cache off, one sequential client connection: every
  request pays a full kernel run + round trip on its own.
* **cached** — the content-addressed cache on, concurrent connections:
  repeats hit the cache, and identical requests queued or computing at the
  same time coalesce onto one computation.

Every served coloring in *both* runs is verified bit-for-bit against a
direct in-process ``color_with`` call, and the report embeds the treatment
server's metrics snapshot.  The report keeps its ``batched_cached`` key for
the cached run.  Headline claim: cached throughput ≥ 5× baseline.

**Part 2 — horizontal scaling.**  A mixed-shape zipf workload drives a
4-worker router (``stencil-ivc serve --workers 4`` equivalent) with
pipelined connections, swept across 8–64 concurrent connections after a
prewarm pass.  A dedicated
``verify=True`` pass proves the routed, pipelined responses stay
bit-identical to direct colorings, and an overload point (~10× the
in-flight depth of the sweet spot) checks graceful degradation: zero
errors, zero lost requests, throughput holding ≥ half of the
same-concurrency sweep point.  Headline claim: peak cached throughput
≥ 5000 req/s.

Run standalone (writes the repo-root ``BENCH_service.json``)::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick] [--out PATH]

or through pytest-benchmark (writes ``BENCH_service.json`` under the
artifact root, ``out/benchmarks/``)::

    python -m pytest benchmarks/bench_service.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.service.loadgen import build_workload, run_loadgen
from repro.service.router import RouterConfig, RouterThread
from repro.service.server import ServerConfig, ServerThread

#: The minimum cached over baseline speedup the bench enforces.
MIN_SPEEDUP = 5.0

#: The minimum peak cached throughput (req/s) the scaling section enforces
#: (full runs only; ``--quick`` records without enforcing).
MIN_SCALED_RPS = 5000.0


def _measure(
    config: ServerConfig,
    workload,
    *,
    requests: int,
    concurrency: int,
    seed: int,
) -> tuple[dict, dict]:
    """Run one server configuration; returns (loadgen report, metrics)."""
    with ServerThread(config) as server:
        report = run_loadgen(
            "127.0.0.1",
            server.port,
            workload,
            requests=requests,
            concurrency=concurrency,
            verify=True,
            seed=seed,
        )
    return report.to_json(), report.metrics


def run_service_benchmark(
    *,
    shapes=((48, 48), (32, 32)),
    distinct: int = 6,
    algorithm: str = "BDP",
    baseline_requests: int = 60,
    requests: int = 300,
    concurrency: int = 8,
    cache_size: int = 512,
    seed: int = 0,
) -> dict:
    """The full ``BENCH_service.json`` document."""
    workload = build_workload(
        shapes, distinct=distinct, algorithm=algorithm, seed=seed
    )

    baseline_config = ServerConfig(port=0, cache_size=0)
    baseline, _ = _measure(
        baseline_config,
        workload,
        requests=baseline_requests,
        concurrency=1,
        seed=seed,
    )

    treatment_config = ServerConfig(port=0, cache_size=cache_size)
    treatment, metrics = _measure(
        treatment_config,
        workload,
        requests=requests,
        concurrency=concurrency,
        seed=seed + 1,
    )

    speedup = (
        treatment["throughput_rps"] / baseline["throughput_rps"]
        if baseline["throughput_rps"]
        else float("inf")
    )
    all_identical = (
        baseline["divergences"] == 0
        and treatment["divergences"] == 0
        and baseline["errors"] == 0
        and treatment["errors"] == 0
    )
    return {
        "meta": {
            "tool": "benchmarks/bench_service.py",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "workload": {
                "shapes": [list(s) for s in shapes],
                "distinct": distinct,
                "algorithm": algorithm,
                "seed": seed,
            },
            "baseline_config": {"cache_size": 0, "concurrency": 1},
            "treatment_config": {"cache_size": cache_size,
                                 "concurrency": concurrency},
        },
        "baseline": baseline,
        "batched_cached": treatment,
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "metrics_snapshot": metrics,
        "all_identical": all_identical,
    }


def run_scaling_benchmark(
    *,
    shapes=((48, 48), (32, 32)),
    distinct: int = 8,
    algorithm: str = "BDP",
    workers: int = 4,
    zipf: float = 1.1,
    pipeline: int = 8,
    concurrency_sweep=(8, 16, 32, 64),
    requests: int = 8000,
    verify_requests: int = 1000,
    seed: int = 0,
    enforce: bool = True,
) -> dict:
    """The ``scaling`` section of ``BENCH_service.json``.

    The sweep itself runs ``verify=False`` so the (single-core) client
    measures serving capacity, not its own ``array_equal`` loop; the
    dedicated verify pass — routed, pipelined, zipf-skewed like the sweep
    — is what proves bit-identity.
    """
    workload = build_workload(
        shapes, distinct=distinct, algorithm=algorithm, seed=seed
    )
    worker_config = ServerConfig(port=0, queue_limit=256, cache_size=512)

    # --- an N-worker router ---------------------------------------------
    router_config = RouterConfig(
        port=0, workers=workers, worker_config=worker_config
    )
    with RouterThread(router_config) as router:
        # Prewarm: every pool item computed once on its rendezvous owner,
        # so the measured phases below are pure cached traffic.
        prewarm = run_loadgen(
            "127.0.0.1", router.port, workload,
            requests=4 * distinct, concurrency=4, seed=seed,
            fetch_metrics=False,
        )
        sweep = []
        for concurrency in concurrency_sweep:
            time.sleep(1.0)  # settle between phases (scheduler fairness)
            point = run_loadgen(
                "127.0.0.1", router.port, workload,
                requests=requests, concurrency=concurrency,
                seed=seed + 2 + concurrency, zipf=zipf,
                pipeline=pipeline, fetch_metrics=False,
            )
            sweep.append(point.to_json())
        # Overload: ~10x the in-flight depth of the lightest sweep point.
        time.sleep(1.0)
        overload = run_loadgen(
            "127.0.0.1", router.port, workload,
            requests=requests, concurrency=max(concurrency_sweep),
            seed=seed + 99, zipf=zipf,
            pipeline=10 * pipeline, fetch_metrics=False,
        ).to_json()
        # The equivalence pass runs after the sweep so its client-side
        # array comparisons don't contend with the capacity measurement.
        verified = run_loadgen(
            "127.0.0.1", router.port, workload,
            requests=verify_requests, concurrency=8, verify=True,
            seed=seed + 1, zipf=zipf, pipeline=pipeline,
            fetch_metrics=False,
        )


    peak = max(point["throughput_rps"] for point in sweep)
    # Graceful = nothing lost and throughput holding ≥ half of the
    # *same-concurrency* sweep point (peak is measured earlier, on a
    # fresher machine state, and would overstate the collapse).
    reference = sweep[-1]["throughput_rps"]
    graceful = (
        overload["errors"] == 0
        and overload["connection_failures"] == 0
        and overload["throughput_rps"] >= 0.5 * reference
    )
    return {
        "config": {
            "workers": workers,
            "zipf": zipf,
            "pipeline": pipeline,
            "shapes": [list(s) for s in shapes],
            "distinct": distinct,
            "algorithm": algorithm,
            "requests_per_point": requests,
            "seed": seed,
        },
        "prewarm_computed": prewarm.computed,
        "verified": verified.to_json(),
        "sweep": sweep,
        "peak_rps": peak,
        "min_rps": MIN_SCALED_RPS,
        "enforced": enforce,
        "overload": overload,
        "graceful_degradation": graceful,
    }


def format_summary(report: dict) -> str:
    base = report["baseline"]
    treat = report["batched_cached"]
    status = "bit-identical" if report["all_identical"] else "DIVERGED"
    lines = [
        f"baseline (uncached, serial): "
        f"{base['throughput_rps']:.1f} req/s, "
        f"p50 {base['latency_p50_ms']:.2f} ms",
        f"cached ({treat['concurrency']} conns): "
        f"{treat['throughput_rps']:.1f} req/s, "
        f"p50 {treat['latency_p50_ms']:.2f} ms, "
        f"p99 {treat['latency_p99_ms']:.2f} ms, "
        f"hit rate {treat['cache_hit_rate'] * 100:.1f}%",
        f"speedup: {report['speedup']:.1f}x (floor {report['min_speedup']:.0f}x, "
        f"{status})",
    ]
    scaling = report.get("scaling")
    if scaling:
        cfg = scaling["config"]
        verified = scaling["verified"]
        verdict = (
            "bit-identical" if verified["divergences"] == 0 else "DIVERGED"
        )
        lines.append(
            f"scaling ({cfg['workers']} workers, zipf "
            f"s={cfg['zipf']:g}, pipeline {cfg['pipeline']}):"
        )
        for point in scaling["sweep"]:
            lines.append(
                f"  conc {point['concurrency']:>3}: "
                f"{point['throughput_rps']:.0f} req/s, "
                f"hit rate {point['cache_hit_rate'] * 100:.1f}%, "
                f"p50 {point['latency_p50_ms']:.1f} ms"
            )
        overload = scaling["overload"]
        degrade = "graceful" if scaling["graceful_degradation"] else "COLLAPSED"
        lines.append(
            f"  peak {scaling['peak_rps']:.0f} req/s "
            f"(floor {scaling['min_rps']:.0f}"
            f"{'' if scaling['enforced'] else ', not enforced'}); "
            f"verify pass {verdict}"
        )
        lines.append(
            f"  overload x10 in-flight: {overload['throughput_rps']:.0f} req/s, "
            f"{overload['errors']} errors, "
            f"{overload['overloaded_retries']} overload retries ({degrade})"
        )
    return "\n".join(lines)


def _check(report: dict) -> list[str]:
    problems = []
    if not report["all_identical"]:
        problems.append("served colorings diverged from direct color_with")
    if report["speedup"] < report["min_speedup"]:
        problems.append(
            f"speedup {report['speedup']:.2f}x below the "
            f"{report['min_speedup']:.0f}x floor"
        )
    scaling = report.get("scaling")
    if scaling:
        verified = scaling["verified"]
        if verified["divergences"] or verified["errors"]:
            problems.append("scaled serving diverged from direct color_with")
        if not scaling["graceful_degradation"]:
            problems.append("overload did not degrade gracefully")
        if scaling["enforced"] and scaling["peak_rps"] < scaling["min_rps"]:
            problems.append(
                f"peak scaled throughput {scaling['peak_rps']:.0f} req/s "
                f"below the {scaling['min_rps']:.0f} req/s floor"
            )
    return problems


# ------------------------------------------------------------ pytest harness
def _full_report(*, quick: bool, seed: int = 0) -> dict:
    if quick:
        report = run_service_benchmark(
            shapes=((32, 32),), distinct=4,
            baseline_requests=40, requests=200, seed=seed,
        )
        report["scaling"] = run_scaling_benchmark(
            shapes=((32, 32),), distinct=4, workers=2,
            concurrency_sweep=(8, 16), requests=1200, verify_requests=200,
            seed=seed, enforce=False,
        )
    else:
        # Scaling first: the capacity sweep gets the freshest CPU (shared
        # runners throttle sustained load, and part 1 is not rate-sensitive
        # in the same way — its claim is a ratio, not an absolute).
        scaling = run_scaling_benchmark(seed=seed)
        report = run_service_benchmark(seed=seed)
        report["scaling"] = scaling
    return report


def test_service_benchmark(benchmark):
    report = benchmark.pedantic(
        lambda: _full_report(quick=True),
        rounds=1,
        iterations=1,
    )
    from benchmarks.conftest import out_dir

    d = out_dir()
    d.mkdir(parents=True, exist_ok=True)
    (d / "BENCH_service.json").write_text(json.dumps(report, indent=2) + "\n")
    print("\n" + format_summary(report))
    assert not _check(report), _check(report)


# ----------------------------------------------------------------- standalone
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workload (CI smoke)")
    parser.add_argument("--out", default="BENCH_service.json",
                        help="JSON report path ('' skips the file)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    report = _full_report(quick=args.quick, seed=args.seed)

    print(format_summary(report))
    if args.out:
        path = Path(args.out)
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {path}")
    problems = _check(report)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
