"""Fast-path resolution: config mode + legacy process switch + per-call arg.

The vectorized kernels in :mod:`repro.kernels` are differentially tested to
produce *identical* colorings to the reference Python loops, so they are on
by default.  Whether a given call actually takes the kernel is decided here,
from three layers (highest wins):

1. an explicit per-call ``fast=True``/``False`` argument — always honoured
   (benchmarks and differential tests rely on ``fast=True`` exercising the
   kernels even on degenerate grids);
2. the scoped :func:`fast_paths` context manager (used by
   :func:`~repro.core.algorithms.registry.color_with` so a resolved decision
   reaches every primitive underneath the algorithm), then the legacy
   process-wide switch :func:`set_fast_paths`;
3. the current :class:`~repro.runtime.config.RuntimeConfig` ``fast_paths``
   mode: ``"off"`` disables, ``"on"`` forces, ``"auto"`` engages from
   ``fast_paths_min_size`` vertices up (batched NumPy dispatch has fixed
   overhead that dominates on miniature instances).

The legacy boolean switch maps onto the tri-state as ``True`` → auto (still
subject to the size threshold, as it always was) and ``False`` → off.

:mod:`repro.kernels` re-exports these names; the module lives in
``repro.runtime`` so :mod:`repro.core` can resolve fast-path decisions
without a core→kernels import (the kernels themselves are bound lazily by
the registry).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from repro.runtime.config import RuntimeConfig
from repro.runtime.context import ExecutionContext, get_context

__all__ = [
    "MIN_AUTO_SIZE",
    "fast_paths_enabled",
    "set_fast_paths",
    "resolve_fast",
    "resolve_fast_for",
    "fast_paths",
]

#: Minimum vertex count for the kernels to engage in auto mode under the
#: *default* (environment-derived) config.  Kept as a module constant for
#: compatibility; context-aware code reads ``config.fast_paths_min_size``.
MIN_AUTO_SIZE: int = RuntimeConfig.from_env().fast_paths_min_size

# The legacy process-wide switch. None = no override, follow the config mode.
# A plain global (not a ContextVar) to preserve the pre-runtime semantics of
# set_fast_paths being visible process-wide, threads included.
_override: Optional[bool] = None

# The scoped override of fast_paths(), which beats the process switch.  A
# ContextVar, because the service runs colorings on executor threads: each
# thread (and asyncio task) sees only the blocks it entered itself, so
# overlapping calls can neither see nor leak each other's decision.
_scoped: ContextVar[Optional[bool]] = ContextVar("repro_fast_paths", default=None)


def _active_override() -> Optional[bool]:
    scoped = _scoped.get()
    return scoped if scoped is not None else _override


def fast_paths_enabled(context: Optional[ExecutionContext] = None) -> bool:
    """Whether the vectorized kernels are currently enabled (size aside)."""
    override = _active_override()
    if override is not None:
        return override
    ctx = context if context is not None else get_context()
    return ctx.config.fast_paths != "off"


def set_fast_paths(enabled: bool) -> None:
    """Legacy process-wide switch: ``True`` ≈ auto mode, ``False`` = off.

    Overrides the config mode for the rest of the process (or until the
    next call).  ``True`` keeps the auto-mode size threshold — it restores
    default behaviour rather than forcing kernels onto tiny instances; use
    ``RuntimeConfig(fast_paths="on")`` or per-call ``fast=True`` to force.
    """
    global _override
    _override = bool(enabled)


def resolve_fast(
    fast: Optional[bool], context: Optional[ExecutionContext] = None
) -> bool:
    """Normalize a per-call ``fast`` argument: ``None`` follows the switch."""
    return fast_paths_enabled(context) if fast is None else bool(fast)


def resolve_fast_for(
    fast: Optional[bool],
    num_vertices: int,
    context: Optional[ExecutionContext] = None,
) -> bool:
    """Per-call fast decision with the auto-mode size threshold applied.

    Explicit ``True``/``False`` win unconditionally.  ``None`` consults the
    scoped or process switch if set (``True`` behaving like auto mode),
    else the context's config mode: ``"off"`` → False, ``"on"`` → True,
    ``"auto"`` → ``num_vertices >= config.fast_paths_min_size``.
    """
    if fast is not None:
        return bool(fast)
    ctx = context if context is not None else get_context()
    min_size = ctx.config.fast_paths_min_size
    override = _active_override()
    if override is not None:
        return override and num_vertices >= min_size
    mode = ctx.config.fast_paths
    if mode == "off":
        return False
    if mode == "on":
        return True
    return num_vertices >= min_size


@contextmanager
def fast_paths(enabled: bool) -> Iterator[None]:
    """Scoped override of the fast-path switch for the current thread/task.

    The override lives in a ContextVar, so it is visible only inside the
    block on the thread (or asyncio task) that entered it, and leaving the
    block restores whatever was in effect there before — never the process
    switch, which the block does not touch.
    """
    token = _scoped.set(bool(enabled))
    try:
        yield
    finally:
        _scoped.reset(token)
