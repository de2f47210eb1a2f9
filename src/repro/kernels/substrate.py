"""Shared per-shape substrate: cached geometry, stencil layout, and schedules.

Stencil instances of the same shape share everything except their weights:
the padded-offset :class:`StencilLayout` every kernel reads neighbours
through, and the geometry with its :math:`K_4`/:math:`K_8` block table
(for the reference loops).  Benchmark suites construct hundreds of
instances over a handful of shapes, and the batch engine replays the same shapes in every worker
process — so this module memoizes all of it behind two small LRU caches,
keyed by grid shape (its length tells 2D from 3D):

* :func:`shared_geometry` — one :class:`~repro.stencil.grid.StencilGrid`
  per shape, so the block table — and the ``cached_property`` CSR, for the
  reference paths that walk it — are built at most once and shared by every
  instance of that shape (``IVCInstance.from_grid_2d/3d`` call it through
  :func:`shared_geometry_2d` / :func:`shared_geometry_3d`);
* :func:`get_substrate` — the kernel-facing :class:`Substrate` bundling the
  shape's :class:`StencilLayout` and a per-order cache of wavefront
  schedules.  The schedules (:meth:`Substrate.wavefront_for`, the Kahn
  and analytic builders) batch an order into levels of pairwise
  non-adjacent cells; no first-fit pass reads them since the passes run
  the compiled loop of :mod:`repro.kernels.native`, and they stay only for
  the traced benchmark, which binds ``Substrate.wavefront_for`` by name.

A 9-pt (27-pt) stencil gives every cell the same 8 (26) offset neighbours,
clipped at the grid border.  The layout embeds the grid in one with a
one-cell border, so a cell's neighbours are ``p + deltas`` in padded ids —
one add, no bounds mask and no ``cells × degree`` table — and border cells
hold values that no kernel ever reads as a real neighbour (``UNCOLORED``
starts, zero weights, never-ready indegrees).  The layout costs ``O(cells)``
to build, so region calls build it on demand and the substrate caches it.

The caches live on the :class:`~repro.runtime.context.ExecutionContext`
(under the ``"kernels.substrate"`` scoped key), sized by its
:class:`~repro.runtime.config.RuntimeConfig` and emitting hit/miss/eviction
counters into its metrics registry.  Every accessor takes an optional
``context`` and defaults to the ambient :func:`~repro.runtime.context.get_context`,
so existing call sites behave exactly as before: one cache per process,
guarded by a lock (safe under threads), populated lazily per engine worker —
no cross-process shared state to corrupt.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.runtime.config import RuntimeConfig
from repro.runtime.context import ExecutionContext, get_context
from repro.runtime.fingerprint import array_digest
from repro.stencil.grid import StencilGrid, moore_offsets

#: A wavefront schedule: ``verts[ptr[b]:ptr[b + 1]]`` is batch ``b``.
Wavefront = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class StencilLayout:
    """A grid shape embedded in a padded grid with a one-cell border.

    Attributes
    ----------
    padded:
        The grid shape plus two along every axis.
    deltas:
        The 8 (2D) or 26 (3D) stencil offsets as flat offsets of the padded
        grid: the neighbours of padded id ``p`` are ``p + deltas``.
    interior:
        ``(n,)`` padded id of every flat C-order cell id (increasing).
    unpad:
        Padded id back to its flat id, or ``n`` for border cells.
    earlier_deltas:
        The half of ``deltas`` whose offset lowers the GLL level
        ``i + 2j (+ 4k)`` (4 of 8, 13 of 26): a cell's predecessors in the
        line-by-line order.  Derived from the offsets, not settable.
    """

    padded: tuple[int, ...]
    deltas: np.ndarray
    interior: np.ndarray
    unpad: np.ndarray
    earlier_deltas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        offsets = np.asarray(moore_offsets(len(self.padded)))
        steps = offsets @ np.array([1, 2, 4])[: len(self.padded)]
        object.__setattr__(self, "earlier_deltas", self.deltas[steps < 0])

    @classmethod
    def of(cls, shape: tuple[int, ...]) -> "StencilLayout":
        """The layout of a 2D or 3D grid shape, in ``O(cells)``."""
        shape = tuple(int(d) for d in shape)
        if len(shape) not in (2, 3):
            raise ValueError(f"stencil shapes are 2D or 3D, got {shape}")
        padded = tuple(d + 2 for d in shape)
        strides = np.cumprod((1,) + padded[:0:-1])[::-1]
        deltas = np.asarray(moore_offsets(len(shape)), dtype=np.int64) @ strides.astype(np.int64)
        size = int(np.prod(padded))
        inner = (slice(1, -1),) * len(shape)
        interior = np.arange(size, dtype=np.int64).reshape(padded)[inner].ravel()
        unpad = np.full(size, len(interior), dtype=np.int64)
        unpad[interior] = np.arange(len(interior), dtype=np.int64)
        return cls(padded, deltas, interior, unpad)

    @property
    def span(self) -> tuple[int, int]:
        """``(lo, hi)``: padded ids from the first to past the last interior
        cell.  Shifted by any delta, the range stays inside the padded grid,
        so a per-delta pass over all cells is one contiguous slice."""
        return int(self.interior[0]), int(self.interior[-1]) + 1

    @cached_property
    def border(self) -> np.ndarray:
        """``True`` at every border cell of the padded grid (read-only)."""
        border = self.unpad == len(self.interior)
        border.flags.writeable = False
        return border

    def ranking(self, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rank, cells)`` of a visit order, a permutation of the flat ids:
        every padded id's position in it (0 on the border) and the padded
        id at every position (both read-only)."""
        cells = self.interior[order]
        rank = np.zeros(len(self.unpad), dtype=np.int64)
        rank[cells] = np.arange(len(order), dtype=np.int64)
        rank.flags.writeable = False
        cells.flags.writeable = False
        return rank, cells

    def inside(self, padded: np.ndarray) -> np.ndarray:
        """The interior of a padded per-cell array, as a view shaped like
        the grid: its C order is the flat cell order.  Strided slices, so
        writing or copying it out costs no index array."""
        return padded.reshape(self.padded)[(slice(1, -1),) * len(self.padded)]

    def pad(self, values, fill: int) -> np.ndarray:
        """Flat per-cell ``values`` (or one scalar) as padded ``int64``,
        ``fill`` on the border."""
        out = np.full(len(self.unpad), fill, dtype=np.int64)
        view = self.inside(out)
        values = np.asarray(values)
        view[...] = values if values.ndim == 0 else values.reshape(view.shape)
        return out

    def conflicts(self, starts, weights) -> np.ndarray:
        """Every stencil edge whose endpoint intervals intersect, as ``(k, 2)``.

        Rows are flat ids ``u < v`` in lexicographic order — the same array
        as masking the CSR edge list with
        :func:`~repro.core.interval.edge_overlaps`, built without one.
        Each undirected edge is ``(p, p + d)`` for exactly one ``d`` in
        :attr:`earlier_deltas`, so one contiguous shifted compare per
        earlier delta checks every edge exactly once.
        """
        starts = np.asarray(starts, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        # An empty interval (zero weight, or the border) starts after and
        # ends before every other, so it overlaps nothing.
        live = weights > 0
        big = np.iinfo(np.int64).max
        begin = self.pad(np.where(live, starts, big), big)
        end = self.pad(np.where(live, starts + weights, -big), -big)
        lo, hi = self.span
        tails, heads = [], []
        for d in self.earlier_deltas.tolist():
            hit = lo + np.flatnonzero(
                (begin[lo:hi] < end[lo + d : hi + d]) & (begin[lo + d : hi + d] < end[lo:hi])
            )
            tails.append(hit)
            heads.append(hit + d)
        p = self.unpad[np.concatenate(tails)]
        q = self.unpad[np.concatenate(heads)]
        u, v = np.minimum(p, q), np.maximum(p, q)
        order = np.lexsort((v, u))
        return np.column_stack([u[order], v[order]])


def _line_by_line_levels(shape: tuple[int, ...]) -> np.ndarray:
    """Analytic wavefront levels for the line-by-line (GLL) order.

    In a 9-pt stencil visited line-by-line, vertex ``(i, j)`` depends on
    ``(i - 1, j)`` and the three row-``j - 1`` neighbors, all of which sit at
    strictly smaller ``i + 2j``; every later-visited neighbor sits at strictly
    larger ``i + 2j``.  Hence the level sets of ``i + 2j`` (and ``i + 2j + 4k``
    for the 27-pt stencil) are pairwise-independent batches that replay the
    sequential scan exactly.  Computed with one broadcast — no graph traversal.
    """
    if len(shape) == 2:
        X, Y = shape
        lev = np.arange(X, dtype=np.int64)[:, None] + 2 * np.arange(Y, dtype=np.int64)
        return lev.ravel()
    X, Y, Z = shape
    lev = (
        np.arange(X, dtype=np.int64)[:, None, None]
        + 2 * np.arange(Y, dtype=np.int64)[None, :, None]
        + 4 * np.arange(Z, dtype=np.int64)[None, None, :]
    )
    return lev.ravel()


def analytic_wavefront(shape: tuple[int, ...]) -> Wavefront:
    """The GLL wavefront schedule of a grid shape, from the closed form.

    Unlike :meth:`Substrate.wavefront_for` this needs no order array, no
    digest and no materialized adjacency: the schedule is derived purely
    from the level sets of ``i + 2j (+ 4k)``, in ``O(cells)``.
    """
    return _levels_to_wavefront(_line_by_line_levels(tuple(int(d) for d in shape)))


def _levels_to_wavefront(levels: np.ndarray) -> Wavefront:
    """Group vertices by level into a ``(verts, ptr)`` batch schedule."""
    # Vertices in (level, id) order.  The keys are distinct, so a plain
    # sort of them is the stable argsort of the levels, at a third of its
    # cost in 3D.
    n = len(levels)
    keys = levels * n + np.arange(n, dtype=np.int64)
    keys.sort()
    verts = keys % n
    counts = np.bincount(levels)
    counts = counts[counts > 0]
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return verts, ptr


def _kahn_wavefront(layout: StencilLayout, rank: np.ndarray) -> Wavefront:
    """Wavefront schedule for an arbitrary order, by vectorized Kahn rounds.

    Directed edges point from earlier-rank to later-rank endpoints; batch
    ``b`` is the ``b``-th frontier of the resulting DAG.  Every vertex lands
    after all its earlier-order neighbors and before all its later-order
    neighbors, so batched first fit replays the sequential scan exactly; and
    two adjacent vertices never share a frontier.  Total work is ``O(E)``
    spread over one numpy round per DAG level — cheap for geometric and
    weight orders, whose level counts grow like the grid diameter, not ``n``.

    The rounds run in padded ids (sorted like flat ids): border cells rank
    after everything and hold an indegree that never reaches 0.

    Each round's frontier is its ready targets sorted, with repeats dropped
    by a neighbour compare, so every batch is in increasing id order.  This
    replaced ``np.unique``: numpy 2.4's hash-based ``unique`` measured
    slower than the sort at every ready-array size from 1 to 341 elements
    (2.4 vs 2.1 µs at 1, 37 vs 7 µs at 341) and ~10x slower at 87k, so no
    size threshold keeps it.  Whole GLF schedules went from 294–319 to
    135–172 ms at 768² (best of 5, two interleaved rounds, 2-CPU host),
    and GZO's, whose ~25k rounds at 64³ are small, did not slow down at
    any shape from 128² to 768² and 32³ to 64³.
    """
    n = len(rank)
    rank_pad = layout.pad(rank, n)
    # Indegree = earlier neighbours, one contiguous shifted compare per delta
    # over the span of interior ids.
    lo, hi = layout.span
    own = rank_pad[lo:hi]
    earlier = np.zeros(hi - lo, dtype=np.int64)
    for d in layout.deltas.tolist():
        earlier += rank_pad[lo + d : hi + d] < own
    indeg_pad = np.full(len(rank_pad), np.int64(1) << 40)
    indeg_pad[layout.interior] = earlier[layout.interior - lo]
    frontier = layout.interior[indeg_pad[layout.interior] == 0]
    batches: list[np.ndarray] = []
    while frontier.size:
        batches.append(frontier)
        rows = frontier[:, None] + layout.deltas
        targets = rows[rank_pad[rows] > rank_pad[frontier][:, None]]
        np.subtract.at(indeg_pad, targets, 1)
        # A vertex becomes ready once per frontier neighbour: sort the
        # ready targets and keep the first of each run of equal ids.
        ready = targets[indeg_pad[targets] == 0]
        ready.sort()
        keep = np.empty(len(ready), dtype=bool)
        keep[:1] = True
        np.not_equal(ready[1:], ready[:-1], out=keep[1:])
        frontier = ready[keep]
    verts = layout.unpad[np.concatenate(batches)]
    ptr = np.zeros(len(batches) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in batches], out=ptr[1:])
    return verts, ptr


@dataclass
class Substrate:
    """Everything shape-dependent the kernels need, built once per shape.

    Attributes
    ----------
    geometry:
        The (shared) stencil geometry.
    layout:
        The shape's padded-offset :class:`StencilLayout`.
    wavefront_cache_size:
        Schedules kept in the per-order LRU (from the building context's
        :class:`~repro.runtime.config.RuntimeConfig`).
    """

    geometry: StencilGrid
    layout: StencilLayout
    wavefront_cache_size: int
    _wavefronts: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def num_vertices(self) -> int:
        return self.geometry.num_vertices

    @cached_property
    def gll_ranking(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`StencilLayout.ranking` of the line-by-line order, built once."""
        return self.layout.ranking(self.geometry.line_by_line_order())

    @cached_property
    def gzo_ranking(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`StencilLayout.ranking` of the Morton order, built once."""
        return self.layout.ranking(self.geometry.zorder_order)

    def wavefront_for(self, order: np.ndarray) -> Wavefront:
        """The batch schedule replaying ``order``, cached per distinct order.

        The line-by-line order gets its analytic level sets; any other
        permutation goes through the Kahn construction.  Schedules are cached
        by an order digest, so shape-only orders (GLL, GZO) are computed once
        per shape and weight orders (GLF, GSL) once per weight vector.
        Vertex ids are flat C-order ids.
        """
        digest = array_digest(order)
        with self._lock:
            cached = self._wavefronts.get(digest)
            if cached is not None:
                self._wavefronts.move_to_end(digest)
                return cached
        if np.array_equal(order, self.geometry.line_by_line_order()):
            wavefront = analytic_wavefront(self.geometry.shape)
        else:
            rank = np.empty(len(order), dtype=np.int64)
            rank[order] = np.arange(len(order), dtype=np.int64)
            wavefront = _kahn_wavefront(self.layout, rank)
        with self._lock:
            self._wavefronts[digest] = wavefront
            while len(self._wavefronts) > self.wavefront_cache_size:
                self._wavefronts.popitem(last=False)
        return wavefront


class _ShapeCache:
    """A tiny thread-safe LRU keyed by grid shape.

    Tracks hit/miss/eviction counters (monotonic over the cache lifetime,
    surviving :meth:`clear`) so the service ``/metrics`` snapshot can
    report substrate-cache effectiveness.  The same
    events are mirrored into the owning context's metrics registry under
    ``<name>.hits`` / ``<name>.misses`` / ``<name>.evictions``.
    """

    def __init__(
        self,
        maxsize: int,
        *,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "",
    ) -> None:
        self.maxsize = maxsize
        self._items: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._metrics = metrics
        self._name = name

    def _count(self, event: str, amount: int = 1) -> None:
        if self._metrics is not None and self._name:
            self._metrics.counter(f"{self._name}.{event}").inc(amount)

    def get_or_build(self, key, build):
        with self._lock:
            item = self._items.get(key)
            if item is not None:
                self.hits += 1
                self._items.move_to_end(key)
                self._count("hits")
                return item
            self.misses += 1
        self._count("misses")
        item = build()
        with self._lock:
            cached = self._items.setdefault(key, item)
            self._items.move_to_end(key)
            evicted = 0
            while len(self._items) > self.maxsize:
                self._items.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted:
            self._count("evictions", evicted)
        return cached

    def stats(self) -> dict[str, int]:
        """Counters and occupancy: hits, misses, evictions, size, maxsize."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._items),
                "maxsize": self.maxsize,
            }

    def clear(self) -> None:
        with self._lock:
            self._items.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class _SubstrateState:
    """The per-context substrate caches (scoped key ``"kernels.substrate"``)."""

    def __init__(self, config: RuntimeConfig, metrics: MetricsRegistry) -> None:
        self.geometries = _ShapeCache(
            config.substrate_cache_size, metrics=metrics, name="substrate.geometries"
        )
        self.substrates = _ShapeCache(
            config.substrate_cache_size, metrics=metrics, name="substrate.substrates"
        )
        self.wavefront_cache_size = config.wavefront_cache_size


def _state(context: Optional[ExecutionContext] = None) -> _SubstrateState:
    ctx = context if context is not None else get_context()
    return ctx.scoped(
        "kernels.substrate", lambda: _SubstrateState(ctx.config, ctx.metrics)
    )


def shared_geometry(
    *dims: int, context: Optional[ExecutionContext] = None
) -> StencilGrid:
    """The context-shared stencil geometry for a 2D or 3D grid shape."""
    shape = tuple(int(d) for d in dims)
    return _state(context).geometries.get_or_build(shape, lambda: StencilGrid(*shape))


def shared_geometry_2d(
    X: int, Y: int, *, context: Optional[ExecutionContext] = None
) -> StencilGrid:
    """The context-shared 9-pt geometry for an ``X×Y`` grid."""
    return shared_geometry(X, Y, context=context)


def shared_geometry_3d(
    X: int, Y: int, Z: int, *, context: Optional[ExecutionContext] = None
) -> StencilGrid:
    """The context-shared 27-pt geometry for an ``X×Y×Z`` grid."""
    return shared_geometry(X, Y, Z, context=context)


def get_substrate(
    geometry: StencilGrid, *, context: Optional[ExecutionContext] = None
) -> Substrate:
    """The shared :class:`Substrate` for a stencil geometry.

    Two geometries of equal shape map to the same substrate, so the
    layout and wavefront schedules are built once per shape no matter how
    many instances (or benchmark cells) run over it.
    """
    state = _state(context)

    def build() -> Substrate:
        shared = shared_geometry(*geometry.shape, context=context)
        return Substrate(
            geometry=shared,
            layout=StencilLayout.of(shared.shape),
            wavefront_cache_size=state.wavefront_cache_size,
        )

    return state.substrates.get_or_build(geometry.shape, build)


def clear_caches(context: Optional[ExecutionContext] = None) -> None:
    """Drop every cached geometry and substrate (tests, memory pressure)."""
    state = _state(context)
    state.geometries.clear()
    state.substrates.clear()


def cache_sizes(context: Optional[ExecutionContext] = None) -> dict[str, int]:
    """Current entry counts of the shape caches (observability hook)."""
    state = _state(context)
    return {
        "geometries": len(state.geometries),
        "substrates": len(state.substrates),
    }


def substrate_stats(
    context: Optional[ExecutionContext] = None,
) -> dict[str, dict[str, int]]:
    """Hit/miss/eviction counters of both shape caches.

    Counters are cache-lifetime monotonic (``clear_caches`` drops entries
    but not counters), so rates computed from deltas are meaningful.  Exposed
    in the coloring service ``metrics`` snapshot.
    """
    state = _state(context)
    return {
        "geometries": state.geometries.stats(),
        "substrates": state.substrates.stats(),
    }
