"""Fast-path resolution: per-call arg > scoped block > config mode.

The vectorized kernels in :mod:`repro.kernels` are differentially tested to
produce *identical* colorings to the reference Python loops, so they are on
by default.  Whether a given call actually takes the kernel is decided from
three layers (highest wins):

1. an explicit per-call ``fast=True``/``False`` argument — always honoured
   (benchmarks and differential tests rely on ``fast=True`` exercising the
   kernels even on degenerate grids);
2. the scoped :func:`fast_paths` context manager (used by
   :func:`~repro.core.algorithms.registry.color_with` so its decision
   reaches every primitive underneath the algorithm);
3. the current :class:`~repro.runtime.config.RuntimeConfig` ``fast_paths``
   mode: ``"off"`` disables, ``"on"`` forces, ``"auto"`` leaves the choice
   to the caller.

In auto mode the size rule belongs to the algorithm, not to this module:
:meth:`~repro.core.algorithms.registry.AlgorithmSpec.runs_kernel` engages
the kernel from the spec's measured ``kernel_from`` vertex count up, and
``color_with`` scopes that one decision over the whole call.  A primitive
called outside any ``color_with`` in auto mode takes its kernel.

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
    fast: Optional[bool], context: Optional[ExecutionContext] = None
) -> Optional[bool]:
    """The fast-path decision of the first layer that makes one.

    Explicit ``True``/``False`` win unconditionally.  ``None`` consults the
    innermost :func:`fast_paths` block if one is active, else the context's
    config mode: ``"off"`` → False, ``"on"`` → True, ``"auto"`` → ``None``
    (no layer decided; the algorithm's ``kernel_from`` applies, and a bare
    primitive treats it as on).
    """
    if fast is not None:
        return bool(fast)
    scoped = _scoped.get()
    if scoped is not None:
        return scoped
    mode = (context if context is not None else get_context()).config.fast_paths
    if mode == "off":
        return False
    if mode == "on":
        return True
    return None


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
