"""Spans recorded from outside the program: timing wrappers and self time.

A :class:`Tracer` wraps chosen functions and methods with a timer that
records one :class:`Span` per call — name, layer, start, end, the span that
caused it, pid and thread — while leaving the wrapped code untouched.  The
parent of a span is whatever span is open in the caller's context (a
``ContextVar``), so nesting follows calls, asyncio tasks inherit their
creator's span, and threads start with none.

:meth:`Tracer.install` rebinds *every* module attribute of the program's
package that holds a target function, so ``from x import f`` call sites are
covered as well as ``x.f``.  :meth:`Tracer.detach` puts the original
objects back at each site and :meth:`Tracer.attach` the wrappers again, so
one process can time the same work with and without them;
:meth:`Tracer.uninstall` detaches for good.

Spans stay in memory until :func:`write_spans` dumps them as JSON lines.
Only the installing process records: a child forked from it inherits the
wrappers, but they pass straight through there.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Optional

#: Annotates a finished call: ``(args, kwargs, result) -> attrs``.
Annotate = Callable[[tuple, dict, object], dict]

#: The program's package: wrappers are rebound in its modules only.
PACKAGE = "repro"

_open_span: ContextVar[Optional[str]] = ContextVar(
    "benchmarks_perf_open_span", default=None
)


@dataclass
class Span:
    """One timed call.  ``start``/``end`` are ``time.perf_counter`` values,
    comparable across processes on one Linux host (``CLOCK_MONOTONIC``)."""

    id: str
    parent: Optional[str]
    name: str
    layer: str
    start: float
    end: float
    pid: int
    thread: int
    phase: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module`` plus a dotted attribute path (a
    module-level function or ``Class.method``), and the layer it belongs to."""

    module: str
    attr: str
    layer: str
    annotate: Optional[Annotate] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    """Records spans of wrapped calls while :attr:`phase` is set.

    ``phase`` tags each span (``"setup"``, ``"timed"``); ``None`` pauses
    recording, which is how the benchmark keeps its own output checks out
    of the trace.
    """

    def __init__(self, phase: Optional[str] = None) -> None:
        self.phase = phase
        self.spans: list[Span] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        # (owner, attribute, original, wrapper), in the order installed.
        self._sites: list[tuple[object, str, object, object]] = []

    def wrap(
        self, fn: Callable, name: str, layer: str, annotate: Optional[Annotate] = None
    ) -> Callable:
        """``fn`` with a span recorded around every call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase is None or os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            span_id = f"{tracer.pid}.{next(tracer._ids)}"
            parent = _open_span.get()
            token = _open_span.set(span_id)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                _open_span.reset(token)
                if not ok:
                    attrs = {"error": True}
                else:
                    attrs = annotate(args, kwargs, result) if annotate else {}
                tracer.spans.append(
                    Span(span_id, parent, name, layer, start, end, tracer.pid,
                         threading.get_ident(), phase, attrs)
                )

        return traced

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target at every binding site under :data:`PACKAGE`.

        Module-level functions are rebound in each loaded module of the
        package that holds the same function object; methods (plain,
        class- or static-) are rebound on their class.
        """
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for target in targets:
            owner_path, _, attr = target.attr.rpartition(".")
            owner = sys.modules[target.module]
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                if isinstance(original, (classmethod, staticmethod)):
                    inner = self.wrap(
                        original.__func__, target.name, target.layer, target.annotate
                    )
                    wrapped = type(original)(inner)
                else:
                    wrapped = self.wrap(
                        original, target.name, target.layer, target.annotate
                    )
                self._rebind(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, target.name, target.layer, target.annotate)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)

    def _rebind(self, owner: object, attr: str, wrapped: object) -> None:
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        self._sites.append((owner, attr, original, wrapped))
        setattr(owner, attr, wrapped)

    @property
    def bindings(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` for every site :meth:`install`
        wrapped (until :meth:`uninstall`)."""
        return [(owner, attr, original) for owner, attr, original, _ in self._sites]

    def attach(self) -> None:
        """Put the wrappers back at every site :meth:`detach` restored."""
        for owner, attr, _original, wrapped in self._sites:
            setattr(owner, attr, wrapped)

    def detach(self) -> None:
        """Restore the original object at every wrapped site, keeping the
        sites so that :meth:`attach` can wrap them again."""
        for owner, attr, original, _wrapped in reversed(self._sites):
            setattr(owner, attr, original)

    def uninstall(self) -> None:
        """Restore the original object at every site :meth:`install` touched."""
        self.detach()
        self._sites.clear()


def _union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Span id -> self time: its duration minus the union of its children.

    Children may run on other threads and overlap each other; the union
    counts each instant they cover once, and only within the parent.
    """
    spans = list(spans)
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - _union_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def write_spans(path: Path, spans: Iterable[Span]) -> None:
    """Append spans to ``path`` as JSON lines."""
    with open(path, "a", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span), separators=(",", ":")) + "\n")


def read_spans(path: Path) -> list[Span]:
    """The spans :func:`write_spans` wrote (an absent file holds none)."""
    if not Path(path).exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]
