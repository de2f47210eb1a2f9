"""One coloring-service worker for the ``serve-mixed`` workload.

Run as ``python -m benchmarks.perf.serve_worker --spill-dir D --ready-file F
[--spans S]``: serves on an ephemeral localhost port until a ``shutdown``
op, with recolor sessions journaled under ``D``.  The bound port is written
to ``F`` (atomically) once the listener is up.  With ``--spans`` the layer
wrappers are installed here too and the spans are written to ``S`` after
the drain.
"""

from __future__ import annotations

import argparse
import asyncio
import os
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf.serve_worker")
    parser.add_argument("--spill-dir", required=True, type=Path)
    parser.add_argument("--ready-file", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    from repro.service.server import ServerConfig, run_service

    tracer = None
    if args.spans is not None:
        from benchmarks.perf import layers
        from benchmarks.perf.trace import Tracer

        # The client decides which spans were timed, from its own window.
        tracer = Tracer(phase="timed")
        layers.install(tracer)

    def ready(service) -> None:
        tmp = args.ready_file.with_suffix(".tmp")
        tmp.write_text(str(service.port))
        os.replace(tmp, args.ready_file)

    config = ServerConfig(host="127.0.0.1", port=0, spill_dir=str(args.spill_dir))
    asyncio.run(run_service(config, ready=ready))
    if tracer is not None:
        from benchmarks.perf.trace import write_spans

        write_spans(args.spans, tracer.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
