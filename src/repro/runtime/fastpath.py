"""Fast-path resolution: per-call arg > scoped block > config mode.

The vectorized kernels in :mod:`repro.kernels` are differentially tested to
produce *identical* colorings to the reference Python loops, so they are on
by default.  Whether a given call actually takes the kernel is decided here,
from three layers (highest wins):

1. an explicit per-call ``fast=True``/``False`` argument — always honoured
   (benchmarks and differential tests rely on ``fast=True`` exercising the
   kernels even on degenerate grids);
2. the scoped :func:`fast_paths` context manager (used by
   :func:`~repro.core.algorithms.registry.color_with` so a resolved decision
   reaches every primitive underneath the algorithm);
3. the current :class:`~repro.runtime.config.RuntimeConfig` ``fast_paths``
   mode: ``"off"`` disables, ``"on"`` forces, ``"auto"`` engages from
   ``fast_paths_min_size`` vertices up (batched NumPy dispatch has fixed
   overhead that dominates on miniature instances).

The module lives in ``repro.runtime`` so :mod:`repro.core` can resolve
fast-path decisions without a core→kernels import (the kernels themselves
are bound lazily by the registry).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from repro.runtime.context import ExecutionContext, get_context

__all__ = ["resolve_fast_for", "fast_paths"]

# The scoped override of fast_paths().  A ContextVar, because the service
# runs colorings on executor threads: each thread (and asyncio task) sees
# only the blocks it entered itself, so overlapping calls can neither see
# nor leak each other's decision.
_scoped: ContextVar[Optional[bool]] = ContextVar("repro_fast_paths", default=None)


def resolve_fast_for(
    fast: Optional[bool],
    num_vertices: int,
    context: Optional[ExecutionContext] = None,
) -> bool:
    """Per-call fast decision with the auto-mode size threshold applied.

    Explicit ``True``/``False`` win unconditionally.  ``None`` consults the
    innermost :func:`fast_paths` block if one is active (``True`` behaving
    like auto mode), else the context's config mode: ``"off"`` → False,
    ``"on"`` → True, ``"auto"`` → ``num_vertices >=
    config.fast_paths_min_size``.
    """
    if fast is not None:
        return bool(fast)
    ctx = context if context is not None else get_context()
    min_size = ctx.config.fast_paths_min_size
    scoped = _scoped.get()
    if scoped is not None:
        return scoped and num_vertices >= min_size
    mode = ctx.config.fast_paths
    if mode == "off":
        return False
    if mode == "on":
        return True
    return num_vertices >= min_size


@contextmanager
def fast_paths(enabled: bool) -> Iterator[None]:
    """Scoped fast-path override for the current thread/task.

    The override lives in a ContextVar, so it is visible only inside the
    block on the thread (or asyncio task) that entered it, and leaving the
    block restores whatever was in effect there before.
    """
    token = _scoped.set(bool(enabled))
    try:
        yield
    finally:
        _scoped.reset(token)
