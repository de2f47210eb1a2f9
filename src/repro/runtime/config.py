"""Explicit runtime configuration, with the environment as an *override* layer.

:class:`RuntimeConfig` is the one place the ``REPRO_*`` knobs live.  Before
this module existed, ``REPRO_FAST_PATHS`` was parsed in ``kernels/config``,
``REPRO_WAVEFRONT_CACHE_SIZE`` in ``kernels/substrate``, and ``REPRO_FAULTS``
in ``resilience/faults`` — each at import time, each with its own precedence
quirks.  Now every knob is an explicit dataclass field with a documented
default, and :meth:`RuntimeConfig.from_env` applies the environment on top.

Precedence (highest wins)
-------------------------
1. **Explicit per-call arguments** — ``fast=True`` to ``color_with``,
   ``fast_paths=`` to ``run_grid``/``run_suite``, ``--runtime`` on the CLI.
2. **Explicit config** — keyword overrides passed to
   :meth:`RuntimeConfig.from_env`, or a :class:`RuntimeConfig` constructed
   directly (which ignores the environment entirely).
3. **Environment** — the ``REPRO_*`` variables below, read by ``from_env``.
4. **Defaults** — the dataclass field defaults.

Environment variables
---------------------
============================== ========================= ====================
variable                        field                     values
============================== ========================= ====================
``REPRO_FAST_PATHS``            ``fast_paths``            bool (kernels)
``REPRO_SUBSTRATE_CACHE_SIZE``  ``substrate_cache_size``  int (shapes)
``REPRO_WAVEFRONT_CACHE_SIZE``  ``wavefront_cache_size``  int (orders/shape)
``REPRO_FAULTS``                ``fault_spec``            fault spec string
``REPRO_MAX_CELL_RETRIES``      ``max_cell_retries``      int
``REPRO_SERVICE_WORKERS``       ``service_workers``       int (server processes)
``REPRO_TILING``                ``tiling.mode``           ``off``/``auto``/``on``
``REPRO_TILE_SHAPE``            ``tiling.tile_shape``     ``512x512`` style
``REPRO_TILE_CELLS``            ``tiling.tile_cells``     int (cells per tile)
``REPRO_TILING_MIN_CELLS``      ``tiling.min_cells``      int (auto threshold)
``REPRO_TILING_BUDGET_MB``      ``tiling.memory_budget_mb``  int (0 = none)
``REPRO_INCR_VALIDATE``         ``incremental.validate``  bool
``REPRO_INCR_SESSION_LIMIT``    ``incremental.session_limit``  int (sessions)
``REPRO_INCR_SESSION_TTL``      ``incremental.session_ttl``  float (seconds)
``REPRO_DURABILITY_FSYNC``      ``durability.fsync``      ``never``/``checkpoint``/``always``
``REPRO_DURABILITY_CHECKPOINT_INTERVAL`` ``durability.checkpoint_interval`` int (deltas, 0 = never)
============================== ========================= ====================

This module (plus :mod:`repro.resilience.faults`, whose lazy ``REPRO_FAULTS``
parse must survive into freshly forked workers) is the only place in
``src/repro`` allowed to touch ``os.environ`` — enforced by
``tools/check_layers.py``.  External code (benchmarks, conftests) that needs
other environment knobs should go through the :func:`env_str`-family helpers
here rather than importing :mod:`os` for it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Optional

from repro.runtime.fingerprint import config_fingerprint

__all__ = [
    "RUNTIME_MODES",
    "RuntimeConfig",
    "TilingConfig",
    "IncrementalConfig",
    "DurabilityConfig",
    "TilingMode",
    "env_str",
    "env_int",
    "env_float",
    "env_bool",
]

def env_str(name: str, default: str) -> str:
    """``os.environ[name]`` with a default (the sanctioned env accessor)."""
    return os.environ.get(name, default)


def env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return default if raw is None or not raw.strip() else int(raw)


def env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return default if raw is None or not raw.strip() else float(raw)


def env_bool(name: str, default: bool) -> bool:
    """``0``/``false``/``no``/empty are false; anything else set is true."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("", "0", "false", "no", "off")


#: The tri-state tiling mode: ``"off"`` never tiles, ``"auto"`` engages the
#: tiler from ``TilingConfig.min_cells`` grid cells up (GLL only), ``"on"``
#: forces it regardless of size.
TilingMode = str

_TILING_MODES = ("off", "auto", "on")


def _parse_tile_shape(raw: str) -> Optional[tuple[int, ...]]:
    """Parse a ``512x512`` / ``64x64x64`` tile-shape spec (empty → ``None``)."""
    text = raw.strip().lower()
    if not text:
        return None
    return tuple(int(part) for part in text.split("x"))


@dataclass(frozen=True)
class TilingConfig:
    """How (and whether) grids are decomposed into tiles for coloring.

    Frozen and picklable, like its owner :class:`RuntimeConfig`.

    Attributes
    ----------
    mode:
        Tri-state (see :data:`TilingMode`).  ``"auto"`` tiles GLL colorings
        of grids with at least ``min_cells`` cells; everything else runs
        monolithically.
    tile_shape:
        Explicit per-axis tile dimensions (2 or 3 of them); ``None`` derives
        a near-square shape from ``tile_cells``.
    tile_cells:
        Target cells per tile when ``tile_shape`` is unset.
    min_cells:
        Grid size (in cells) from which ``"auto"`` mode engages the tiler.
    memory_budget_mb:
        Soft cap on the tiler's working-set, used to derive ``tile_shape``
        when one is not given (``0`` = unbudgeted).  See ``docs/tiling.md``
        for the memory model.
    """

    mode: TilingMode = "auto"
    tile_shape: Optional[tuple[int, ...]] = None
    tile_cells: int = 1 << 20
    min_cells: int = 1 << 24
    memory_budget_mb: int = 0

    def __post_init__(self) -> None:
        if self.mode not in _TILING_MODES:
            raise ValueError(f"tiling mode must be one of {_TILING_MODES}, got {self.mode!r}")
        if self.tile_shape is not None:
            shape = tuple(int(d) for d in self.tile_shape)
            if len(shape) not in (2, 3) or any(d < 1 for d in shape):
                raise ValueError(f"tile_shape must be 2 or 3 positive dims, got {shape}")
            object.__setattr__(self, "tile_shape", shape)
        if self.tile_cells < 1:
            raise ValueError("tile_cells must be positive")
        for name in ("min_cells", "memory_budget_mb"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @classmethod
    def from_env(cls, **overrides) -> "TilingConfig":
        """Defaults, overridden by ``REPRO_TILING*``, overridden by kwargs."""
        values = {
            "mode": env_str("REPRO_TILING", "auto").strip().lower() or "auto",
            "tile_shape": _parse_tile_shape(env_str("REPRO_TILE_SHAPE", "")),
            "tile_cells": env_int("REPRO_TILE_CELLS", 1 << 20),
            "min_cells": env_int("REPRO_TILING_MIN_CELLS", 1 << 24),
            "memory_budget_mb": env_int("REPRO_TILING_BUDGET_MB", 0),
        }
        for name, value in overrides.items():
            if name not in values:
                raise TypeError(f"unknown TilingConfig field {name!r}")
            if value is not None:
                values[name] = value
        return cls(**values)

    def with_overrides(self, **overrides) -> "TilingConfig":
        """A copy with ``overrides`` applied (``None`` values are skipped)."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **changes) if changes else self


@dataclass(frozen=True)
class IncrementalConfig:
    """How the dirty-region recolor engine (:mod:`repro.incremental`) behaves.

    Frozen and picklable, like its owner :class:`RuntimeConfig`.

    Attributes
    ----------
    validate:
        When true, every incremental recolor is diffed against a full
        from-scratch recolor and a divergence raises
        :class:`~repro.incremental.engine.RecolorValidationError` — the
        belt-and-braces mode for soak tests and chaos runs.
    session_limit:
        Server-side cap on concurrently held ``recolor`` sessions (each
        pins one weights grid and one starts grid in memory); least
        recently used sessions are evicted past the cap.
    session_ttl:
        Seconds of inactivity after which a held session expires; expired
        sessions answer with a typed ``unknown-session`` error rather than
        stale state.
    """

    validate: bool = False
    session_limit: int = 64
    session_ttl: float = 900.0

    def __post_init__(self) -> None:
        if self.session_limit < 1:
            raise ValueError("session_limit must be at least 1")
        if self.session_ttl <= 0:
            raise ValueError("session_ttl must be positive")

    @classmethod
    def from_env(cls, **overrides) -> "IncrementalConfig":
        """Defaults, overridden by ``REPRO_INCR_*``, overridden by kwargs."""
        values = {
            "validate": env_bool("REPRO_INCR_VALIDATE", False),
            "session_limit": env_int("REPRO_INCR_SESSION_LIMIT", 64),
            "session_ttl": env_float("REPRO_INCR_SESSION_TTL", 900.0),
        }
        for name, value in overrides.items():
            if name not in values:
                raise TypeError(f"unknown IncrementalConfig field {name!r}")
            if value is not None:
                values[name] = value
        return cls(**values)

    def with_overrides(self, **overrides) -> "IncrementalConfig":
        """A copy with ``overrides`` applied (``None`` values are skipped)."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **changes) if changes else self


#: Journal fsync policies: ``"never"`` trusts the OS page cache,
#: ``"checkpoint"`` fsyncs only checkpoint snapshots (the default — a torn
#: trailing journal record is tolerated by replay anyway), ``"always"``
#: fsyncs every appended journal record.
_FSYNC_POLICIES = ("never", "checkpoint", "always")


@dataclass(frozen=True)
class DurabilityConfig:
    """How ``recolor`` sessions are journaled and recovered
    (:mod:`repro.service.durability`).

    Frozen and picklable, like its owner :class:`RuntimeConfig`.
    Durability is on exactly when the server has a spill directory
    (``stencil-ivc serve --spill-dir``): journals live under it, and
    without one sessions stay memory-only.

    Attributes
    ----------
    fsync:
        One of ``"never"``, ``"checkpoint"``, ``"always"`` — how hard the
        journal pushes appended records to stable storage.  ``"checkpoint"``
        (default) fsyncs checkpoint snapshots only; replay tolerates a torn
        trailing journal record, so the exposure is the last few deltas on
        a kernel (not process) crash.
    checkpoint_interval:
        Compact the journal into a fingerprinted checkpoint snapshot every
        this many applied deltas (``0`` disables compaction — the journal
        grows without bound and replay starts from the seed frame).
    """

    fsync: str = "checkpoint"
    checkpoint_interval: int = 16

    def __post_init__(self) -> None:
        if self.fsync not in _FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {_FSYNC_POLICIES}, got {self.fsync!r}"
            )
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative")

    @classmethod
    def from_env(cls, **overrides) -> "DurabilityConfig":
        """Defaults, overridden by ``REPRO_DURABILITY_*``, overridden by kwargs."""
        values = {
            "fsync": (
                env_str("REPRO_DURABILITY_FSYNC", "checkpoint").strip().lower()
                or "checkpoint"
            ),
            "checkpoint_interval": env_int(
                "REPRO_DURABILITY_CHECKPOINT_INTERVAL", 16
            ),
        }
        for name, value in overrides.items():
            if name not in values:
                raise TypeError(f"unknown DurabilityConfig field {name!r}")
            if value is not None:
                values[name] = value
        return cls(**values)

    def with_overrides(self, **overrides) -> "DurabilityConfig":
        """A copy with ``overrides`` applied (``None`` values are skipped)."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **changes) if changes else self


#: The ``runtime`` strings :func:`repro.color` and a canonical request frame
#: accept, and the per-call ``fast`` preference each maps onto (``None``
#: defers to ``fast_paths``; ``"tiled"`` routes through the tiler instead).
#: ``"auto"`` is an alias of the default, kept because it is on the wire.
RUNTIME_MODES: dict[str, Optional[bool]] = {
    "auto": None,
    "kernels": True,
    "reference": False,
    "tiled": None,
}


@dataclass(frozen=True)
class RuntimeConfig:
    """Every runtime knob, explicit.  Frozen (use :meth:`with_overrides`) and
    picklable, so the engine can ship one to each worker process.

    Attributes
    ----------
    fast_paths:
        Whether algorithms with kernels run them (``True``, the default) or
        the reference loops (``False``).  A per-call ``fast=`` wins.
    substrate_cache_size:
        Shapes kept per substrate LRU cache (geometries and substrates
        cached separately, each with this capacity).
    wavefront_cache_size:
        Wavefront schedules kept per substrate (one per distinct vertex
        order).
    fault_spec:
        A :func:`repro.resilience.faults.parse_fault_spec` string; empty
        means no fault injection.  Installed by
        :meth:`repro.runtime.context.ExecutionContext.install_faults`.
    max_cell_retries:
        Per-cell retry budget of the supervised engine pool.
    service_workers:
        Default worker-process count for ``stencil-ivc serve`` — ``1`` runs
        the classic single-process server, ``>= 2`` a routed
        :class:`~repro.service.workers.WorkerPool` behind a
        :class:`~repro.service.router.ColoringRouter`.
    tiling:
        The :class:`TilingConfig` governing out-of-core tiled coloring
        (:mod:`repro.tiling`).  A plain dict is accepted and normalized.
    incremental:
        The :class:`IncrementalConfig` governing dirty-region recoloring
        (:mod:`repro.incremental`) and the service's ``recolor`` sessions.
        A plain dict is accepted and normalized.
    durability:
        The :class:`DurabilityConfig` governing session write-ahead
        journaling and crash recovery (:mod:`repro.service.durability`).
        A plain dict is accepted and normalized.
    """

    fast_paths: bool = True
    substrate_cache_size: int = 32
    wavefront_cache_size: int = 8
    fault_spec: str = ""
    max_cell_retries: int = 3
    service_workers: int = 1
    tiling: TilingConfig = field(default_factory=TilingConfig)
    incremental: IncrementalConfig = field(default_factory=IncrementalConfig)
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)

    def __post_init__(self) -> None:
        if isinstance(self.tiling, dict):
            object.__setattr__(self, "tiling", TilingConfig(**self.tiling))
        elif not isinstance(self.tiling, TilingConfig):
            raise ValueError(f"tiling must be a TilingConfig, got {type(self.tiling)!r}")
        if isinstance(self.incremental, dict):
            object.__setattr__(
                self, "incremental", IncrementalConfig(**self.incremental)
            )
        elif not isinstance(self.incremental, IncrementalConfig):
            raise ValueError(
                f"incremental must be an IncrementalConfig, got {type(self.incremental)!r}"
            )
        if isinstance(self.durability, dict):
            object.__setattr__(
                self, "durability", DurabilityConfig(**self.durability)
            )
        elif not isinstance(self.durability, DurabilityConfig):
            raise ValueError(
                f"durability must be a DurabilityConfig, got {type(self.durability)!r}"
            )
        if not isinstance(self.fast_paths, bool):
            raise ValueError(f"fast_paths must be a bool, got {self.fast_paths!r}")
        for name in (
            "substrate_cache_size",
            "wavefront_cache_size",
            "max_cell_retries",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.service_workers < 1:
            raise ValueError("service_workers must be at least 1")

    @classmethod
    def from_env(cls, **overrides) -> "RuntimeConfig":
        """Defaults, overridden by the environment, overridden by ``overrides``.

        ``overrides`` keys are field names; an override of ``None`` means
        "not specified" and falls through to the environment (matching the
        per-call ``fast=None`` convention everywhere else).
        """
        values = {
            "fast_paths": env_bool("REPRO_FAST_PATHS", True),
            "substrate_cache_size": env_int("REPRO_SUBSTRATE_CACHE_SIZE", 32),
            "wavefront_cache_size": env_int("REPRO_WAVEFRONT_CACHE_SIZE", 8),
            "fault_spec": env_str("REPRO_FAULTS", ""),
            "max_cell_retries": env_int("REPRO_MAX_CELL_RETRIES", 3),
            "service_workers": env_int("REPRO_SERVICE_WORKERS", 1),
            "tiling": TilingConfig.from_env(),
            "incremental": IncrementalConfig.from_env(),
            "durability": DurabilityConfig.from_env(),
        }
        known = {f.name for f in fields(cls)}
        for name, value in overrides.items():
            if name not in known:
                raise TypeError(f"unknown RuntimeConfig field {name!r}")
            if value is not None:
                values[name] = value
        return cls(**values)

    @cached_property
    def fingerprint(self) -> str:
        """:func:`~repro.runtime.fingerprint.config_fingerprint` of this
        config, computed once per object (the config is frozen)."""
        return config_fingerprint(self)

    def with_overrides(self, **overrides) -> "RuntimeConfig":
        """A copy with ``overrides`` applied (``None`` values are skipped)."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **changes) if changes else self
