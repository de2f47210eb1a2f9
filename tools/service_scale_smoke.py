#!/usr/bin/env python
"""CI smoke for the scaled service tier: 2 workers and a worker kill.

Starts a router over a pool of worker processes (shared L2 spill
directory), drives a verified zipf/pipelined loadgen burst through
it, then kills one worker outright and drives a second burst: every
request must still be answered bit-identically — by failover to the live
sibling and a supervised restart — and the merged metrics must record the
restart.  Workers inherit ``REPRO_FAULTS`` from the environment, so a
seeded fault plan can run on top of the kill; a ``service.compute`` fault
is answered ``error`` (one compute attempt per request) and so fails the
run.

Exit status 0 = both bursts fully served and bit-identical with the
restart observed, 1 = a lost/diverged/errored request or no restart,
2 = usage.  Run from the repo root::

    PYTHONPATH=src python tools/service_scale_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _burst_problems(report, label: str, requests: int) -> list[str]:
    problems = []
    if report.ok != requests:
        problems.append(f"{label}: {report.ok} of {requests} requests served ok")
    if report.divergences:
        problems.append(f"{label}: {report.divergences} served colorings diverged")
    if report.errors:
        problems.append(f"{label}: {report.errors} error responses")
    if report.connection_failures:
        problems.append(f"{label}: {report.connection_failures} requests lost to "
                        "connection failures")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--requests", type=int, default=300,
                        help="requests per burst (default 300)")
    parser.add_argument("--concurrency", type=int, default=6)
    parser.add_argument("--pipeline", type=int, default=4,
                        help="requests in flight per connection (default 4)")
    parser.add_argument("--zipf", type=float, default=1.1,
                        help="zipf popularity skew (default 1.1)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv[1:])

    from repro.service.client import ServiceClient
    from repro.service.loadgen import build_workload, run_loadgen
    from repro.service.router import RouterConfig, RouterThread
    from repro.service.server import ServerConfig

    config = RouterConfig(
        port=0,
        workers=args.workers,
        worker_config=ServerConfig(
            queue_limit=128, cache_size=64, default_timeout=30.0,
        ),
    )
    workload = build_workload(
        [(24, 24), (16, 16), (8, 8, 4)], distinct=6,
        algorithm="GLL", seed=args.seed,
    )
    problems: list[str] = []
    with RouterThread(config) as thread:
        report = run_loadgen(
            "127.0.0.1", thread.port, workload,
            requests=args.requests, concurrency=args.concurrency,
            verify=True, seed=args.seed,
            pipeline=args.pipeline, zipf=args.zipf,
        )
        problems += _burst_problems(report, "burst 1", args.requests)
        if len(report.workers_seen) < args.workers:
            problems.append(
                f"burst 1: only {sorted(report.workers_seen)} served traffic "
                f"({args.workers} workers expected)"
            )

        # Kill one worker outright.  The next burst's requests for its keys
        # must fail over to the sibling (warm from the shared L2 tier) while
        # the supervisor restarts the slot — degraded, never failed.
        victim = thread.router.pool.handles[0]
        victim.process.kill()
        victim.process.join(5.0)

        report2 = run_loadgen(
            "127.0.0.1", thread.port, workload,
            requests=args.requests, concurrency=args.concurrency,
            verify=True, seed=args.seed + 1,
            pipeline=args.pipeline, zipf=args.zipf,
        )
        problems += _burst_problems(report2, "burst 2 (worker killed)",
                                    args.requests)

        restarts = 0
        with ServiceClient("127.0.0.1", thread.port, timeout=30.0) as client:
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                snap = client.metrics()
                restarts = snap["counters"].get("worker_restarts", 0)
                if restarts >= 1:
                    break
                time.sleep(0.2)
        if restarts < 1:
            problems.append("killed worker was never restarted")

        print(json.dumps({
            "workers": args.workers,
            "faults": os.environ.get("REPRO_FAULTS", ""),
            "burst_1": report.to_json(),
            "burst_2_after_kill": report2.to_json(),
            "worker_restarts": restarts,
        }, indent=2))

    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    print(
        f"service scale smoke: {args.workers} workers, "
        f"2x{args.requests} verified requests, worker kill degraded "
        f"(failover + {restarts} restart), nothing lost"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
