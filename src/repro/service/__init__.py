"""Online coloring service: cached, coalesced serving of coloring requests.

The paper's motivating STKDE application computes colorings *on demand* as
analysts re-bin point data — a serving workload.  This package is the online
front end over the batch engine and vectorized kernels:

* :mod:`~repro.service.protocol` — typed request/response messages and the
  canonical :func:`~repro.service.protocol.content_key` hash;
* :mod:`~repro.service.frames` — the binary wire codec, the service's one
  transport (raw little-endian arrays, routing key in a fixed preamble,
  a ``hello`` frame checking the frame version per connection);
* :mod:`~repro.service.cache` — content-addressed LRU result cache over
  one disk tier, the spill directory shared by one worker or N;
* :mod:`~repro.service.compute` — the FIFO compute queue: one compute
  thread, identical queued or computing requests coalesced by content key;
* :mod:`~repro.service.server` — the asyncio TCP server: bounded admission
  queue, per-request deadlines, graceful drain;
* :mod:`~repro.service.workers` — the supervised multi-process
  :class:`~repro.service.workers.WorkerPool` sharing one L2 directory;
* :mod:`~repro.service.router` — the accept/route front process: stable
  content-key (rendezvous) routing, failover, merged fleet metrics;
* :mod:`~repro.service.client` — the asyncio client and its blocking
  facade;
* :mod:`~repro.service.loadgen` — the repeated-shape load generator
  (uniform or zipf-skewed) with served-vs-direct verification.

Counters, gauges and latency histograms come from :mod:`repro.obs` and are
snapshotted over the wire by the ``metrics`` op.

Served colorings are bit-identical to direct
:func:`~repro.core.algorithms.registry.color_with` calls: the queue shares a
computation only between requests of equal content.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.cache import CacheEntry, ResultCache
from repro.service.client import (
    AsyncServiceClient,
    ColorResponse,
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
)
from repro.service.compute import ComputeQueue
from repro.service.frames import (
    FRAME_VERSION,
    SUPPORTED_FRAME_VERSIONS,
    Frame,
    FrameError,
    TornFrameError,
)
from repro.service.loadgen import (
    LoadgenReport,
    build_workload,
    parse_shapes,
    run_loadgen,
    run_loadgen_async,
)
from repro.service.protocol import (
    PROTOCOL_API_VERSION,
    ColorRequest,
    ProtocolError,
    ServedResult,
    content_key,
)
from repro.service.router import ColoringRouter, RouterConfig, RouterThread
from repro.service.server import ColoringService, ServerConfig, ServerThread
from repro.service.workers import WorkerPool

__all__ = [
    "AsyncServiceClient",
    "CacheEntry",
    "ColorRequest",
    "ColorResponse",
    "ColoringRouter",
    "ColoringService",
    "ComputeQueue",
    "Counter",
    "FRAME_VERSION",
    "Frame",
    "FrameError",
    "Gauge",
    "Histogram",
    "LoadgenReport",
    "MetricsRegistry",
    "PROTOCOL_API_VERSION",
    "ProtocolError",
    "ResultCache",
    "RouterConfig",
    "RouterThread",
    "SUPPORTED_FRAME_VERSIONS",
    "ServedResult",
    "ServerConfig",
    "ServerThread",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceError",
    "TornFrameError",
    "WorkerPool",
    "build_workload",
    "content_key",
    "parse_shapes",
    "run_loadgen",
    "run_loadgen_async",
]
