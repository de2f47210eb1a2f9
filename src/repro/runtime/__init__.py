"""The runtime layer: explicit configuration and the execution context.

One :class:`RuntimeConfig` (every ``REPRO_*`` knob as an explicit field,
environment applied as overrides in exactly one place) plus one
:class:`ExecutionContext` (substrate caches, metrics registry, fault plan)
threaded through all four coloring call paths — direct registry dispatch,
the vectorized kernels, the parallel engine, and the online service.  See
``docs/architecture.md``.
"""

from repro.runtime.config import (
    RUNTIME_MODES,
    RuntimeConfig,
    TilingConfig,
    env_bool,
    env_float,
    env_int,
    env_str,
)
from repro.runtime.context import (
    ExecutionContext,
    get_context,
    set_default_context,
    use_context,
)
from repro.runtime.fingerprint import (
    array_digest,
    canonical_weights,
    config_fingerprint,
    content_key,
)

__all__ = [
    "RUNTIME_MODES",
    "RuntimeConfig",
    "TilingConfig",
    "config_fingerprint",
    "ExecutionContext",
    "get_context",
    "set_default_context",
    "use_context",
    "array_digest",
    "canonical_weights",
    "content_key",
    "env_bool",
    "env_float",
    "env_int",
    "env_str",
]
