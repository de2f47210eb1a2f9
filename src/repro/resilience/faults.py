"""Deterministic, seeded fault injection for chaos testing.

A :class:`FaultPlan` is a set of :class:`FaultPoint` rules, each naming an
*injection site* (a dotted string compiled into the production code, e.g.
``engine.cell`` or ``client.send``), a fault *kind*, and a firing
probability.  Whether a point fires for a given ``(site, token)`` pair is a
pure function of the plan seed — a blake2b hash of ``seed|site|kind|token``
compared against the probability — so a chaos run is exactly reproducible:
the same plan on the same workload injects the same faults in the same
places, regardless of thread/process scheduling.

Sites pass a *token* identifying the unit of work (a cell id plus its
attempt number, a request id, a cache key).  Including the attempt number in
the token is what lets retried work draw a fresh decision: a cell that
crashed on attempt 0 rolls new dice on attempt 1 instead of crashing
forever.

Hook sites compiled into the tree
---------------------------------
================== ======================= =================================
site               kinds honoured          where
================== ======================= =================================
``engine.cell``    crash, error, slow      engine worker, per cell attempt
``client.send``    drop, partial, slow     service clients, before the write
``client.recv``    drop, slow              service clients, before the read
``service.compute`` error, slow            compute queue, before an
                                           entry's one compute attempt
                                           (``error`` answers every waiter
                                           of the entry ``error``)
``cache.spill.write`` corrupt, torn        result-cache spill-dir write
``service.recolor`` crash, error, slow     recolor verb, before seed/delta
                                           state is mutated (retry-safe)
``tiling.band``    crash, error, slow      tiler band pass, before each band:
                                           ``error`` fails that band and the
                                           rest (earlier bands stay logged)
``durability.journal.append`` torn, error  session WAL append: ``torn``
                                           writes half the record then
                                           raises (the un-acked delta is
                                           re-sent and re-journaled),
                                           ``error`` fails before writing
                                           (drawn by ``durable.append``)
``durability.checkpoint.write`` corrupt, stale  session checkpoint
                                           compaction: ``corrupt`` damages
                                           the snapshot so read-back
                                           verification rejects it (journal
                                           kept), ``stale`` skips the
                                           checkpoint (journal grows)
================== ======================= =================================

Activation
----------
Programmatic: :func:`install_plan` / :func:`clear_plan`.  Environment: set
``REPRO_FAULTS`` to a spec string (see :func:`parse_fault_spec`), e.g.::

    REPRO_FAULTS="seed=11;engine.cell:crash=0.2;client.send:drop=0.1,max=5"

The environment plan is parsed lazily on first use, so freshly forked engine
workers and spawned servers observe the same plan.  With no plan installed
every hook is a no-op costing one ``None`` check.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "FaultPoint",
    "FaultPlan",
    "InjectedFault",
    "parse_fault_spec",
    "install_plan",
    "clear_plan",
    "active_plan",
    "draw",
    "inject",
]

#: Exit code of a worker process killed by an injected ``crash`` fault.
CRASH_EXIT_CODE = 70


class InjectedFault(RuntimeError):
    """Raised by an ``error``-kind fault point (or by custom hook sites)."""


@dataclass(frozen=True)
class FaultPoint:
    """One injection rule: fire ``kind`` at ``site`` with ``probability``.

    Attributes
    ----------
    site:
        Dotted injection-site name the rule applies to.
    kind:
        Fault behaviour — what the hook site does when the point fires
        (``crash``, ``error``, ``slow``, ``drop``, ``partial``, ``corrupt``,
        ``torn``; sites honour the subset that makes sense for them).
    probability:
        Chance in ``[0, 1]`` that the point fires for a given token
        (deterministic per ``(seed, site, kind, token)``).
    max_fires:
        Per-process budget; once exhausted the point never fires again in
        this process.  ``None`` means unlimited.
    delay:
        Sleep duration in seconds for ``slow`` faults.
    """

    site: str
    kind: str
    probability: float = 1.0
    max_fires: Optional[int] = None
    delay: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")


def _unit_draw(seed: int, site: str, kind: str, token: str) -> float:
    """A deterministic uniform draw in ``[0, 1)`` for one decision."""
    h = hashlib.blake2b(
        f"{seed}|{site}|{kind}|{token}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(h, "big") / 2**64


@dataclass
class FaultPlan:
    """A seeded set of fault points, with per-process fire accounting."""

    seed: int = 0
    points: list[FaultPoint] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._fired: dict[int, int] = {}
        self._log: list[tuple[str, str, str]] = []

    def draw(self, site: str, token: str) -> Optional[FaultPoint]:
        """The fault point firing at ``site`` for ``token``, if any.

        The probability decision is deterministic in the plan seed; the
        ``max_fires`` budget is per-process state guarded by a lock.
        """
        for idx, point in enumerate(self.points):
            if point.site != site:
                continue
            if _unit_draw(self.seed, site, point.kind, token) >= point.probability:
                continue
            with self._lock:
                fired = self._fired.get(idx, 0)
                if point.max_fires is not None and fired >= point.max_fires:
                    continue
                self._fired[idx] = fired + 1
                self._log.append((site, point.kind, token))
            return point
        return None

    def fired(self) -> list[tuple[str, str, str]]:
        """Every ``(site, kind, token)`` fired so far in this process."""
        with self._lock:
            return list(self._log)

    def fire_counts(self) -> dict[str, int]:
        """Per-``site:kind`` fire counts in this process."""
        with self._lock:
            counts: dict[str, int] = {}
            for idx, n in self._fired.items():
                point = self.points[idx]
                label = f"{point.site}:{point.kind}"
                counts[label] = counts.get(label, 0) + n
            return counts


def parse_fault_spec(text: str) -> FaultPlan:
    """Parse a compact fault spec into a :class:`FaultPlan`.

    Grammar: ``;``-separated segments, each either ``seed=N`` or
    ``site:kind=prob`` with optional ``,``-separated options ``max=N``
    (per-process fire budget) and ``delay=S`` (seconds, for ``slow``)::

        seed=11;engine.cell:crash=0.2;client.send:drop=0.1,max=5
        service.compute:slow=1.0,delay=0.2
    """
    plan = FaultPlan()
    for segment in text.split(";"):
        segment = segment.strip()
        if not segment:
            continue
        if segment.startswith("seed="):
            plan.seed = int(segment[len("seed="):])
            continue
        head, _, opts = segment.partition(",")
        try:
            target, prob_text = head.split("=")
            site, kind = target.rsplit(":", 1)
        except ValueError:
            raise ValueError(
                f"bad fault segment {segment!r}: expected site:kind=prob"
            ) from None
        max_fires: Optional[int] = None
        delay = 0.05
        for opt in opts.split(","):
            opt = opt.strip()
            if not opt:
                continue
            name, _, value = opt.partition("=")
            if name == "max":
                max_fires = int(value)
            elif name == "delay":
                delay = float(value)
            else:
                raise ValueError(f"unknown fault option {opt!r} in {segment!r}")
        plan.points.append(
            FaultPoint(
                site=site.strip(),
                kind=kind.strip(),
                probability=float(prob_text),
                max_fires=max_fires,
                delay=delay,
            )
        )
    return plan


_PLAN: Optional[FaultPlan] = None
_ENV_CHECKED = False
_INSTALL_LOCK = threading.Lock()


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (``None`` clears, like :func:`clear_plan`)."""
    global _PLAN, _ENV_CHECKED
    with _INSTALL_LOCK:
        _PLAN = plan
        _ENV_CHECKED = True  # an explicit install overrides the environment


def clear_plan() -> None:
    """Remove any installed plan and forget the environment parse."""
    global _PLAN, _ENV_CHECKED
    with _INSTALL_LOCK:
        _PLAN = None
        _ENV_CHECKED = False


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, lazily parsing ``REPRO_FAULTS`` on first use."""
    global _PLAN, _ENV_CHECKED
    if _ENV_CHECKED:
        return _PLAN
    with _INSTALL_LOCK:
        if not _ENV_CHECKED:
            spec = os.environ.get("REPRO_FAULTS", "")
            _PLAN = parse_fault_spec(spec) if spec.strip() else None
            _ENV_CHECKED = True
    return _PLAN


def draw(site: str, token: str) -> Optional[FaultPoint]:
    """Hook-site helper: the firing point for ``(site, token)``, or ``None``.

    Use this where the site interprets the fault itself (connection drops,
    spill corruption); use :func:`inject` for the generic semantics.
    """
    plan = active_plan()
    if plan is None:
        return None
    return plan.draw(site, token)


def inject(site: str, token: str) -> Optional[FaultPoint]:
    """Apply generic fault semantics at ``site`` and return the fired point.

    ``crash`` exits the process immediately (``os._exit`` — no cleanup,
    like ``kill -9``); ``error`` raises :class:`InjectedFault`; ``slow``
    sleeps ``delay`` seconds then proceeds.  Other kinds are returned to the
    caller to interpret.
    """
    point = draw(site, token)
    if point is None:
        return None
    if point.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if point.kind == "error":
        raise InjectedFault(f"injected {site} fault for {token!r}")
    if point.kind == "slow":
        time.sleep(point.delay)
    return point
