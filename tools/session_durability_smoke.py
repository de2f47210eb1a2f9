#!/usr/bin/env python
"""CI chaos smoke for durable recolor sessions: SIGKILL mid-stream, replay.

Starts a router with two spawned workers sharing one spill directory (the
workers inherit ``REPRO_FAULTS``, so CI runs the stream under a seeded
fault plan — e.g. torn journal appends and stale checkpoints), seeds a few
recolor sessions, streams sparse deltas, then SIGKILLs the worker that
owns each session mid-stream.  The durability contract under test:

* the remaining deltas are still served — the failover sibling (or the
  restarted slot) rebuilds the session by replaying its write-ahead
  journal + checkpoint from the shared spill directory;
* the fleet reports ``session_recoveries >= 1`` and at least one delta
  response carries the ``recovered`` flag;
* the client performs **zero** mirror re-seeds — recovery is entirely
  server-side;
* each session's final client mirror (weights *and* starts) matches a
  cold in-process full recolor bit-for-bit.

Exit status 0 = all of the above held, 1 = a violated invariant, 2 =
usage.  Run from the repo root::

    REPRO_FAULTS='seed=13;durability.journal.append:torn=0.1,max=4' \\
        PYTHONPATH=src python tools/session_durability_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", default="32x32",
                        help="session grid shape, e.g. 32x32 or 10x10x10")
    parser.add_argument("--algorithm", default="GLF")
    parser.add_argument("--sessions", type=int, default=2)
    parser.add_argument("--deltas", type=int, default=24,
                        help="deltas streamed per session (kill at midpoint)")
    parser.add_argument("--cells", type=int, default=4,
                        help="cells rewritten per delta")
    parser.add_argument("--attempts", type=int, default=8,
                        help="send attempts per delta before giving up")
    parser.add_argument("--checkpoint-interval", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv[1:])

    try:
        shape = tuple(int(d) for d in args.shape.lower().split("x"))
        if len(shape) not in (2, 3) or any(d < 2 for d in shape):
            raise ValueError
    except ValueError:
        print(f"error: bad --shape {args.shape!r}", file=sys.stderr)
        return 2

    from repro.incremental.engine import full_recolor
    from repro.resilience import RetryPolicy
    from repro.service.client import ServiceClient
    from repro.service.frames import session_routing_key
    from repro.service.router import RouterConfig, RouterThread, rank_workers
    from repro.service.server import ServerConfig
    from repro.runtime.config import DurabilityConfig, RuntimeConfig

    rng = np.random.default_rng(args.seed)
    n = int(np.prod(shape))
    cells = max(1, min(args.cells, n))
    problems: list[str] = []
    retried = 0
    kills = 0
    recovered_answers = 0

    config = RouterConfig(
        port=0,
        workers=2,
        worker_config=ServerConfig(
            default_timeout=30.0,
            runtime=RuntimeConfig(durability=DurabilityConfig(
                checkpoint_interval=args.checkpoint_interval,
            )),
        ),
    )
    with RouterThread(config) as thread:
        client = ServiceClient(
            "127.0.0.1", thread.port, timeout=30.0,
            retry=RetryPolicy(retries=4), retry_seed=args.seed,
        )
        with client:
            names = [f"durable-s{i}" for i in range(args.sessions)]
            mirrors: dict[str, np.ndarray] = {}
            for name in names:
                weights = rng.integers(1, 101, size=shape, dtype=np.int64)
                for attempt in range(args.attempts):
                    response = client.recolor_open(
                        name, weights, args.algorithm,
                        request_id=f"{name}/seed/{attempt}",
                    )
                    if response.ok:
                        break
                    retried += 1
                else:
                    problems.append(f"{name}: seed never accepted")
                mirrors[name] = weights.copy()

            def stream(step_range: range) -> None:
                nonlocal retried, recovered_answers
                for step in step_range:
                    for name in names:
                        current = mirrors[name]
                        idx = rng.choice(n, size=cells, replace=False)
                        vals = rng.integers(1, 101, size=cells)
                        for attempt in range(args.attempts):
                            response = client.recolor_delta(
                                name, idx, vals,
                                request_id=f"{name}/d{step}/{attempt}",
                            )
                            if response.ok:
                                if response.recovered:
                                    recovered_answers += 1
                                current.ravel()[idx] = vals
                                break
                            retried += 1
                        else:
                            problems.append(
                                f"{name} delta {step}: no ok answer in "
                                f"{args.attempts} attempts "
                                f"(last: {response.status}: {response.error})"
                            )

            half = max(1, args.deltas // 2)
            stream(range(half))

            # SIGKILL every worker owning an active session (with two
            # workers and several sessions this usually kills both slots —
            # the harder variant of the single-owner chaos test).
            owners = {
                rank_workers(session_routing_key(name), config.workers)[0]
                for name in names
            }
            for index in sorted(owners):
                handle = thread.router.pool.handles[index]
                handle.process.kill()
                handle.process.join(5.0)
                kills += 1

            stream(range(half, args.deltas))

            divergences = 0
            for name in names:
                state = client.recolor_state(name)
                if state is None:
                    divergences += 1
                    problems.append(f"{name}: no client mirror")
                    continue
                weights, starts = state
                if not np.array_equal(weights, mirrors[name]):
                    divergences += 1
                    problems.append(f"{name}: mirror weights diverged")
                    continue
                cold = full_recolor(weights, args.algorithm)
                if not np.array_equal(starts, cold):
                    divergences += 1
                    problems.append(
                        f"{name}: streamed coloring diverged from cold "
                        f"full recolor on "
                        f"{int(np.count_nonzero(starts != cold))} cells"
                    )

            snap = client.metrics()
            fleet = snap.get("fleet", {}).get("counters", {})
            recoveries = int(fleet.get("session_recoveries", 0))
            if recoveries < 1:
                problems.append(
                    f"expected session_recoveries >= 1 after {kills} "
                    f"SIGKILLs, fleet reports {recoveries}"
                )
            if recovered_answers < 1:
                problems.append(
                    "no delta response carried the recovered flag"
                )
            if client.reseeds_used != 0:
                problems.append(
                    f"client performed {client.reseeds_used} mirror "
                    f"re-seeds; durable recovery must need zero"
                )

            print(json.dumps({
                "shape": list(shape),
                "algorithm": args.algorithm,
                "faults": os.environ.get("REPRO_FAULTS", ""),
                "sessions": args.sessions,
                "deltas_per_session": args.deltas,
                "workers_killed": kills,
                "retries": retried,
                "recovered_answers": recovered_answers,
                "client_reseeds": client.reseeds_used,
                "divergences": divergences,
                "fleet_counters": {
                    k: v for k, v in sorted(fleet.items())
                    if k.startswith(("session_", "journal_", "checkpoint",
                                     "recolor_"))
                },
            }, indent=2))

    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    print(
        f"session durability smoke: {args.sessions} sessions x {shape}, "
        f"{kills} worker SIGKILL(s) mid-stream, {recovered_answers} "
        f"journal-replay answers, 0 client re-seeds, final colorings "
        f"bit-identical to cold recolor"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
