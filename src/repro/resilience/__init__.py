"""Resilience layer: seeded fault injection and retry/backoff policies.

* :mod:`~repro.resilience.faults` — :class:`FaultPlan`/:class:`FaultPoint`
  deterministic fault injection, activated programmatically or via the
  ``REPRO_FAULTS`` environment variable, with hook sites compiled into the
  engine workers, the service connection path, and the cache spill I/O.
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy` exponential backoff
  with seeded jitter, shared by the service clients and the load generator.
* :mod:`~repro.resilience.durable` — the one append, read and verified
  publish behind every durable JSONL record (run, tile and campaign logs,
  session journals).

The recovery paths these drive (pool supervision + resume in
:func:`repro.engine.run_grid`, reconnecting clients) are implemented in
their home modules.
"""

from repro.resilience.faults import (
    FaultPlan,
    FaultPoint,
    InjectedFault,
    active_plan,
    clear_plan,
    install_plan,
    parse_fault_spec,
)
from repro.resilience.retry import RetryPolicy, call_with_retries

__all__ = [
    "FaultPlan",
    "FaultPoint",
    "InjectedFault",
    "RetryPolicy",
    "active_plan",
    "call_with_retries",
    "clear_plan",
    "install_plan",
    "parse_fault_spec",
]
