#!/usr/bin/env python
"""CI smoke for the streaming recolor verb: seeded deltas, faults, verify.

Starts an in-process coloring service (which inherits ``REPRO_FAULTS`` from
the environment, so CI runs the whole stream under a seeded fault plan with
``service.recolor`` error injections), seeds a few recolor sessions, and
streams a deterministic sequence of sparse weight deltas through the
``recolor`` verb.  Because every delta carries *absolute* new weights and
the server injects faults before touching session state, an errored delta
is simply re-sent — idempotent by construction.  Typed ``unknown-session``
answers (probed explicitly, and possible mid-stream after an eviction) are
recovered from via the client's mirror re-seed, never by reconnecting.

At the end, each session's client mirror — weights *and* starts, as
maintained from the server's changed-cells answers — must match a cold
in-process full recolor of the final weights bit-for-bit.

Exit status 0 = every delta landed and every final coloring matches the
cold recolor, 1 = a lost delta or a divergence, 2 = usage.  Run from the
repo root::

    REPRO_FAULTS='seed=11;service.recolor:error=0.3,max=5' \\
        PYTHONPATH=src python tools/recolor_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", default="48x48",
                        help="session grid shape, e.g. 48x48 or 12x12x12")
    parser.add_argument("--algorithm", default="GLF")
    parser.add_argument("--sessions", type=int, default=2)
    parser.add_argument("--deltas", type=int, default=40,
                        help="sparse deltas streamed across the sessions")
    parser.add_argument("--cells", type=int, default=4,
                        help="cells rewritten per delta")
    parser.add_argument("--attempts", type=int, default=8,
                        help="send attempts per delta before giving up")
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
    from repro.service.server import ServerConfig, ServerThread

    rng = np.random.default_rng(args.seed)
    n = int(np.prod(shape))
    cells = max(1, min(args.cells, n))
    problems: list[str] = []
    retried = 0
    unknown_recoveries = 0

    config = ServerConfig(port=0, default_timeout=30.0)
    with ServerThread(config) as thread:
        client = ServiceClient(
            "127.0.0.1", thread.port, timeout=30.0,
            retry=RetryPolicy(retries=4), retry_seed=args.seed,
        )
        with client:
            # The typed-error probe: a delta for a session that was never
            # seeded must come back as a structured invalid answer on the
            # live connection — the same socket then seeds and streams.
            probe = client.recolor_delta("never-seeded", [0], [1],
                                         reseed=False)
            if not probe.unknown_session:
                problems.append(
                    f"probe: expected a typed unknown-session answer, got "
                    f"{probe.status!r} (code {probe.code!r})"
                )

            names = [f"smoke-s{i}" for i in range(args.sessions)]
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

            landed = 0
            for step in range(args.deltas):
                name = names[step % len(names)]
                idx = rng.choice(n, size=cells, replace=False)
                vals = rng.integers(1, 101, size=cells)
                for attempt in range(args.attempts):
                    response = client.recolor_delta(
                        name, idx, vals,
                        request_id=f"{name}/d{step}/{attempt}",
                    )
                    if response.ok:
                        landed += 1
                        break
                    if response.unknown_session:
                        unknown_recoveries += 1
                    retried += 1
                else:
                    problems.append(
                        f"{name} delta {step}: no ok answer in "
                        f"{args.attempts} attempts "
                        f"(last: {response.status}: {response.error})"
                    )

            divergences = 0
            for name in names:
                state = client.recolor_state(name)
                if state is None:
                    divergences += 1
                    problems.append(f"{name}: no client mirror")
                    continue
                weights, starts = state
                cold = full_recolor(weights, args.algorithm)
                if not np.array_equal(starts, cold):
                    divergences += 1
                    problems.append(
                        f"{name}: streamed coloring diverged from cold "
                        f"full recolor on "
                        f"{int(np.count_nonzero(starts != cold))} cells"
                    )

            snap = client.metrics()
            print(json.dumps({
                "shape": list(shape),
                "algorithm": args.algorithm,
                "faults": os.environ.get("REPRO_FAULTS", ""),
                "sessions": args.sessions,
                "deltas_landed": landed,
                "deltas_requested": args.deltas,
                "retries": retried,
                "unknown_session_answers": unknown_recoveries,
                "divergences": divergences,
                "server_sessions": snap.get("sessions", {}),
                "recolor_counters": {
                    k: v for k, v in snap.get("counters", {}).items()
                    if k.startswith("recolor_")
                },
            }, indent=2))

    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    print(
        f"recolor smoke: {args.sessions} sessions x {shape}, "
        f"{landed}/{args.deltas} deltas landed ({retried} retried under "
        f"faults), final colorings bit-identical to cold recolor"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
