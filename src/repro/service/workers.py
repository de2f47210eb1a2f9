"""The multi-process worker pool behind ``stencil-ivc serve --workers N``.

Each worker is a full :class:`~repro.service.server.ColoringService` in its
own *spawned* process — own event loop, own GIL, own in-memory result
cache — listening on an ephemeral port it reports back through a pipe.
The pool is the supervised layer underneath the router
(:mod:`repro.service.router`):

* **Blame-isolated restarts** — :meth:`WorkerPool.ensure_alive` respawns a
  dead worker slot without touching its siblings; the slot keeps its
  ``worker_id`` and gains a restart count, so ``/metrics`` shows *which*
  worker died and how often, not just that something did.
* **Shared L2 warm start** — every worker gets the same ``spill_dir``
  (the disk tier of :class:`~repro.service.cache.ResultCache`), which a
  cache indexes when it is built, so a freshly restarted worker serves
  its siblings' cached results from its first request.
* **Fault parity** — workers are spawned with the parent's environment,
  so ``REPRO_*`` runtime settings and ``REPRO_FAULTS`` fault plans apply
  inside each worker exactly as they would in a single-process server.
  A programmatic ``ServerConfig.runtime`` survives the spawn pickle too
  (rebuilt from its ``asdict`` form in the child).
* **Durable sessions** — the shared ``spill_dir`` also holds the recolor
  session journals (:mod:`repro.service.durability`), so a restarted
  worker — or a sibling taking over after failover — rebuilds a dead
  worker's sessions by journal replay instead of bouncing clients.

The pool is transport-agnostic: it spawns, watches, and stops processes.
Routing requests to workers is the router's job.
"""

from __future__ import annotations

import multiprocessing as mp
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from repro.service.server import ServerConfig

#: How long one worker may take to bind its port before startup fails.
WORKER_START_TIMEOUT = 30.0


def _worker_main(conn, config_fields: dict) -> None:
    """Entry point of one spawned worker process.

    Rebuilds the runtime from the (inherited) environment — the same
    ``ExecutionContext.from_env()`` + ``install_faults()`` sequence the CLI
    runs — then serves a :class:`ColoringService` until a shutdown op,
    reporting the bound port through ``conn`` once listening.
    """
    import asyncio

    from repro.runtime.config import RuntimeConfig
    from repro.runtime.context import ExecutionContext, set_default_context

    context = ExecutionContext.from_env()
    set_default_context(context)
    context.install_faults()

    from repro.service.server import run_service

    # asdict() flattened any programmatic RuntimeConfig (and its nested
    # tiling/incremental/durability configs) into plain dicts for the spawn
    # pickle; rebuild it so workers honor the parent's explicit runtime
    # instead of silently falling back to the environment.
    runtime = config_fields.get("runtime")
    if isinstance(runtime, dict):
        config_fields = {**config_fields, "runtime": RuntimeConfig(**runtime)}
    config = ServerConfig(**config_fields)

    def ready(service) -> None:
        conn.send(service.port)

    try:
        asyncio.run(run_service(config, ready=ready))
    except KeyboardInterrupt:  # pragma: no cover - parent teardown
        pass
    finally:
        conn.close()


@dataclass
class WorkerHandle:
    """One pool slot: a stable identity over possibly many processes."""

    index: int
    worker_id: str
    process: mp.Process
    host: str
    port: int
    restarts: int = 0
    started_at: float = field(default_factory=time.monotonic)

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerPool:
    """N supervised :class:`ColoringService` processes sharing one L2 dir.

    ``spill_dir=None`` makes the pool create (and own) a temporary shared
    directory; passing a path keeps the L2 tier across pool lifetimes.
    """

    def __init__(
        self,
        base_config: Optional[ServerConfig] = None,
        workers: int = 2,
        *,
        spill_dir: Optional[str] = None,
    ) -> None:
        self.base_config = base_config or ServerConfig()
        self.workers = max(1, int(workers))
        self._owned_dir: Optional[tempfile.TemporaryDirectory] = None
        if spill_dir is None:
            self._owned_dir = tempfile.TemporaryDirectory(prefix="ivc-l2-")
            spill_dir = self._owned_dir.name
        self.spill_dir = spill_dir
        self.handles: list[WorkerHandle] = []
        self.total_restarts = 0
        self._ctx = mp.get_context("spawn")

    # -------------------------------------------------------------- lifecycle
    def _worker_config(self, index: int) -> ServerConfig:
        return replace(
            self.base_config,
            host="127.0.0.1",
            port=0,
            spill_dir=self.spill_dir,
            worker_id=f"w{index}",
        )

    def _spawn(self, index: int, restarts: int = 0) -> WorkerHandle:
        config = self._worker_config(index)
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, asdict(config)),
            name=f"ivc-{config.worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(WORKER_START_TIMEOUT):
            process.terminate()
            raise RuntimeError(
                f"worker {config.worker_id} failed to report a port within "
                f"{WORKER_START_TIMEOUT}s"
            )
        port = int(parent_conn.recv())
        parent_conn.close()
        return WorkerHandle(
            index=index,
            worker_id=config.worker_id,
            process=process,
            host=config.host,
            port=port,
            restarts=restarts,
        )

    def start(self) -> "WorkerPool":
        self.handles = [self._spawn(i) for i in range(self.workers)]
        return self

    def ensure_alive(self, index: int) -> bool:
        """Respawn slot ``index`` if its process died; True if it restarted.

        The new process keeps the slot's ``worker_id`` (identity names the
        slot, not the pid) and warm-starts from the shared L2 directory.
        """
        handle = self.handles[index]
        if handle.alive():
            return False
        handle.process.join(timeout=0.1)
        self.handles[index] = self._spawn(index, restarts=handle.restarts + 1)
        self.total_restarts += 1
        return True

    def dead_slots(self) -> list[int]:
        return [h.index for h in self.handles if not h.alive()]

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful drain of every worker, escalating to terminate."""
        from repro.service.client import ServiceClient, ServiceError

        for handle in self.handles:
            if not handle.alive():
                continue
            try:
                with ServiceClient(
                    handle.host, handle.port, timeout=timeout
                ) as client:
                    client.shutdown()
            except (ServiceError, OSError):
                pass  # a dead or wedged worker is terminated below
        deadline = time.monotonic() + timeout
        for handle in self.handles:
            handle.process.join(max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(1.0)
        if self._owned_dir is not None:
            self._owned_dir.cleanup()
            self._owned_dir = None

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
