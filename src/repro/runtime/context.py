"""The ExecutionContext: one object owning a run's mutable runtime state.

An :class:`ExecutionContext` bundles a :class:`~repro.runtime.config.RuntimeConfig`
with the state that used to be module globals scattered across four layers:

* the per-process **substrate caches** (kernels) — reached through
  :meth:`ExecutionContext.scoped`, a keyed lazy-init store each subsystem
  uses for its cache object;
* the **metrics registry** (:class:`repro.obs.MetricsRegistry`) — engine
  workers, kernel caches, and the service all emit into the context's
  registry;
* the **fault plan** — :meth:`install_faults` parses ``config.fault_spec``
  and installs it via :mod:`repro.resilience.faults`.

Ambient access
--------------
Most call sites do not thread a context explicitly; they pick up the
*current* one via :func:`get_context`:

* inside a :func:`use_context` block, the context given to it (propagated
  through ``contextvars``, so asyncio tasks inherit it automatically —
  but **not** across ``run_in_executor`` threads, which must re-enter
  ``use_context`` themselves, as the service compute queue does);
* otherwise a lazily created process-default built by
  :meth:`ExecutionContext.from_env` — which is exactly the pre-refactor
  behaviour of every module parsing its own env vars at import.

Engine worker processes build their own context in the pool initializer and
install it with :func:`set_default_context`, so every cell colored in the
worker lands in the worker's registry (snapshots are merged back in the
parent, see :mod:`repro.engine.executor`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Optional, TypeVar

from repro.obs.metrics import MetricsRegistry
from repro.runtime.config import RuntimeConfig

__all__ = [
    "ExecutionContext",
    "get_context",
    "resolve_fast",
    "use_context",
    "set_default_context",
]

T = TypeVar("T")


class ExecutionContext:
    """A runtime config plus the mutable per-process state it governs.

    Contexts are cheap to create; subsystem caches inside them are built
    lazily on first use.  A context is *not* picklable (it holds locks and
    caches) — ship its :class:`RuntimeConfig` across processes and rebuild.
    """

    def __init__(
        self,
        config: Optional[RuntimeConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else RuntimeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._state: dict = {}
        self._state_lock = threading.Lock()

    @classmethod
    def from_env(cls, **overrides) -> "ExecutionContext":
        """A context over :meth:`RuntimeConfig.from_env` (overrides win)."""
        return cls(RuntimeConfig.from_env(**overrides))

    def child(
        self,
        *,
        config: Optional[RuntimeConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "ExecutionContext":
        """A context sharing this one's subsystem state (substrate caches)
        but optionally swapping the config or metrics registry.

        The service uses this to get its own metrics registry while still
        sharing the process's substrate caches with direct callers.
        """
        clone = ExecutionContext.__new__(ExecutionContext)
        clone.config = config if config is not None else self.config
        clone.metrics = metrics if metrics is not None else self.metrics
        clone._state = self._state
        clone._state_lock = self._state_lock
        return clone

    def scoped(self, key: str, factory: Callable[[], T]) -> T:
        """The per-context singleton under ``key``, built by ``factory`` once.

        Subsystems use this for their cache objects — e.g. the kernel
        substrate layer keeps its shape caches under ``"kernels.substrate"``.
        The factory runs outside the lock-free fast path but inside the state
        lock, so it must not re-enter :meth:`scoped` for the same key.
        """
        with self._state_lock:
            try:
                return self._state[key]
            except KeyError:
                item = factory()
                self._state[key] = item
                return item

    def clear_scoped(self, key: str) -> None:
        """Drop the subsystem state under ``key`` (rebuilt on next use)."""
        with self._state_lock:
            self._state.pop(key, None)

    def install_faults(self) -> None:
        """Parse and install ``config.fault_spec`` as the process fault plan.

        A no-op when the spec is empty — crucially it does **not** clear an
        already-installed plan, so fork-inherited plans from
        ``install_plan`` (the chaos tests) survive worker initialization.
        """
        if not self.config.fault_spec.strip():
            return
        from repro.resilience.faults import install_plan, parse_fault_spec

        install_plan(parse_fault_spec(self.config.fault_spec))


_current: ContextVar[Optional[ExecutionContext]] = ContextVar(
    "repro_execution_context", default=None
)
_default: Optional[ExecutionContext] = None
_default_lock = threading.Lock()


def get_context() -> ExecutionContext:
    """The current context: the innermost :func:`use_context`, else the
    lazily built process default (``ExecutionContext.from_env()``)."""
    ctx = _current.get()
    if ctx is not None:
        return ctx
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = ExecutionContext.from_env()
    return _default


def resolve_fast(
    fast: Optional[bool] = None, context: Optional[ExecutionContext] = None
) -> bool:
    """The kernel decision of one call: an explicit ``fast`` wins, else the
    context's ``config.fast_paths`` (the current context when ``None``).

    :func:`~repro.core.algorithms.registry.color_with` runs a call whose
    ``fast`` differs from the config under a child context carrying it, so
    the primitives underneath, which pass ``fast=None``, follow the call.
    """
    if fast is not None:
        return bool(fast)
    return (context if context is not None else get_context()).config.fast_paths


def set_default_context(ctx: Optional[ExecutionContext]) -> None:
    """Replace the process-default context (``None`` → rebuild from env on
    next use).  Engine workers call this from the pool initializer; tests
    use it to reset runtime state."""
    global _default
    with _default_lock:
        _default = ctx


@contextmanager
def use_context(ctx: ExecutionContext) -> Iterator[ExecutionContext]:
    """Make ``ctx`` the current context for the dynamic extent of the block.

    Propagates through ``contextvars`` — asyncio tasks created inside the
    block inherit it; threads and executor jobs do not and must re-enter.
    """
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)
