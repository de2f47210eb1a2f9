"""First-fit interval assignment — the primitive behind every greedy heuristic.

Section V.A of the paper: when a vertex ``v`` is picked, it receives the
lowest color interval of width ``w(v)`` that does not intersect the interval
of any already-colored neighbor.  Sorting the neighbor intervals by their
lower end lets a single scan find that interval, for a per-vertex cost of
``O(Γ(v) log Γ(v))`` and ``O(E log E)`` over the whole graph.

The module provides:

* :func:`first_fit_start` — the sort-and-scan primitive;
* :func:`first_fit_start_naive` — an O(maxcolor · Γ) conflict-jump variant
  kept for the engine ablation benchmark;
* :func:`greedy_color` — color all vertices in a given order;
* :func:`greedy_recolor_pass` — re-run first-fit on already-colored vertices
  (the post-optimization building block; never increases ``maxcolor``).

Zero-weight vertices occupy empty intervals: they are always assigned start 0
and never constrain anyone.

On stencil instances :func:`greedy_color` and :func:`greedy_recolor_pass`
dispatch to the passes of :mod:`repro.kernels.wavefront`, one call of a
compiled first-fit loop each (identical starts, differentially tested),
unless fast paths are disabled; the per-vertex loops below remain the
reference semantics.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.coloring import Coloring
from repro.core.problem import IVCInstance
from repro.runtime.fastpath import resolve_fast_for

#: Sentinel start value for not-yet-colored vertices.
UNCOLORED = -1


def _check_permutation(order: np.ndarray, n: int) -> None:
    """Raise unless ``order`` is a permutation of ``0..n-1`` (O(n), no sort)."""
    if len(order) != n:
        raise ValueError("order must be a permutation of all vertices")
    if n == 0:
        return
    if int(order.min()) < 0 or int(order.max()) >= n:
        raise ValueError("order must be a permutation of all vertices")
    if int(np.bincount(order, minlength=n).max()) > 1:
        raise ValueError("order must be a permutation of all vertices")


def _is_permutation(order: np.ndarray, n: int) -> bool:
    """Cheap permutation test used to gate the first-fit kernels."""
    if len(order) != n:
        return False
    if n == 0:
        return True
    if int(order.min()) < 0 or int(order.max()) >= n:
        return False
    return int(np.bincount(order, minlength=n).max()) <= 1


def first_fit_start(nb_starts: Iterable[int], nb_ends: Iterable[int], w: int) -> int:
    """Lowest ``s >= 0`` such that ``[s, s + w)`` misses all neighbor intervals.

    Parameters
    ----------
    nb_starts, nb_ends:
        Starts and ends of the *non-empty* intervals already held by colored
        neighbors (parallel sequences, any order).
    w:
        Width of the interval to place; ``w == 0`` always fits at 0.

    Notes
    -----
    Implements the paper's sort-and-scan: neighbors sorted by lower end, one
    pass keeping the running frontier ``cur``; the first gap of length at
    least ``w`` wins.
    """
    if w == 0:
        return 0
    pairs = sorted(zip(nb_starts, nb_ends))
    cur = 0
    for a, b in pairs:
        if a - cur >= w:
            return cur
        if b > cur:
            cur = b
    return cur


def first_fit_start_naive(nb_starts, nb_ends, w: int) -> int:
    """Conflict-jump first fit (no sort): ablation baseline.

    Repeatedly tries the current candidate start and, on conflict, jumps to
    the end of a conflicting interval.  Worst case O(Γ²) per vertex versus
    O(Γ log Γ) for :func:`first_fit_start`; both return the same start.
    """
    if w == 0:
        return 0
    nb_starts = list(nb_starts)
    nb_ends = list(nb_ends)
    cur = 0
    moved = True
    while moved:
        moved = False
        for a, b in zip(nb_starts, nb_ends):
            if a < cur + w and cur < b:
                cur = b
                moved = True
    return cur


def _gather_neighbor_intervals(
    graph_indptr: np.ndarray,
    graph_indices: np.ndarray,
    starts: np.ndarray,
    weights: np.ndarray,
    v: int,
) -> tuple[list[int], list[int]]:
    """Starts/ends of the colored, non-empty neighbor intervals of ``v``."""
    nbs = graph_indices[graph_indptr[v] : graph_indptr[v + 1]]
    ns: list[int] = []
    ne: list[int] = []
    for u in nbs:
        s = starts[u]
        if s != UNCOLORED and weights[u] > 0:
            ns.append(s)
            ne.append(s + weights[u])
    return ns, ne


def greedy_color(
    instance: IVCInstance,
    order: np.ndarray,
    algorithm: str = "greedy",
    first_fit=first_fit_start,
    *,
    fast: Optional[bool] = None,
    check_order: bool = True,
) -> Coloring:
    """Color every vertex by first fit in the given order.

    Parameters
    ----------
    order:
        Permutation of ``0..n-1``; vertices are colored in this sequence.
    first_fit:
        First-fit primitive (swappable for the ablation benchmark).
    fast:
        Use the compiled first-fit kernel (stencil instances only; identical
        starts, differentially tested).  ``None`` follows
        :func:`repro.runtime.fastpath.resolve_fast_for` (a scoped block,
        else the config mode; auto mode takes the kernel, since the
        per-algorithm size rule is applied once by ``color_with``); generic
        graphs and custom ``first_fit`` primitives always take the
        reference loop.
    check_order:
        Validate that ``order`` is a permutation (O(n)).  Callers generating
        orders by construction — tight recolor/search loops — pass ``False``.
    """
    n = instance.num_vertices
    order = np.asarray(order, dtype=np.int64)
    if check_order:
        _check_permutation(order, n)
    elif len(order) != n:
        raise ValueError("order must be a permutation of all vertices")
    if (
        resolve_fast_for(fast) is not False
        and instance.geometry is not None
        and first_fit is first_fit_start
    ):
        from repro.kernels.wavefront import wavefront_greedy_color

        starts = wavefront_greedy_color(instance, order)
        return Coloring(instance=instance, starts=starts, algorithm=algorithm)
    starts = np.full(n, UNCOLORED, dtype=np.int64)
    weights = instance.weights
    indptr = instance.graph.indptr
    indices = instance.graph.indices
    for v in order:
        v = int(v)
        ns, ne = _gather_neighbor_intervals(indptr, indices, starts, weights, v)
        starts[v] = first_fit(ns, ne, int(weights[v]))
    return Coloring(instance=instance, starts=starts, algorithm=algorithm)


def greedy_color_partial(
    instance: IVCInstance,
    starts: np.ndarray,
    vertices: Iterable[int],
    first_fit=first_fit_start,
) -> None:
    """First-fit color the given vertices in order, updating ``starts`` in place.

    Vertices already colored (``starts[v] != UNCOLORED``) are left untouched —
    the "greedy principle" of the clique-first heuristics.
    """
    weights = instance.weights
    indptr = instance.graph.indptr
    indices = instance.graph.indices
    for v in vertices:
        v = int(v)
        if starts[v] != UNCOLORED:
            continue
        ns, ne = _gather_neighbor_intervals(indptr, indices, starts, weights, v)
        starts[v] = first_fit(ns, ne, int(weights[v]))


def greedy_recolor_pass(
    instance: IVCInstance,
    starts: np.ndarray,
    order: Optional[np.ndarray] = None,
    first_fit=first_fit_start,
    *,
    fast: Optional[bool] = None,
) -> np.ndarray:
    """Re-run first fit on already-colored vertices, one at a time.

    Each vertex is momentarily removed and re-placed at the lowest interval
    compatible with its neighbors' *current* intervals.  Since its current
    start is itself compatible, no start ever increases, hence ``maxcolor``
    never increases either.  Returns a new starts array.

    Parameters
    ----------
    order:
        Recoloring sequence; defaults to vertex id order.
    """
    n = instance.num_vertices
    out = np.asarray(starts, dtype=np.int64).copy()
    if np.any(out == UNCOLORED):
        raise ValueError("recolor pass requires a fully colored instance")
    if order is None:
        order = np.arange(n, dtype=np.int64)
    else:
        order = np.asarray(order, dtype=np.int64)
    if (
        resolve_fast_for(fast) is not False
        and instance.geometry is not None
        and first_fit is first_fit_start
        and _is_permutation(order, n)
    ):
        from repro.kernels.wavefront import wavefront_recolor_pass

        return wavefront_recolor_pass(instance, out, order)
    weights = instance.weights
    indptr = instance.graph.indptr
    indices = instance.graph.indices
    for v in order:
        v = int(v)
        ns, ne = _gather_neighbor_intervals(indptr, indices, out, weights, v)
        out[v] = first_fit(ns, ne, int(weights[v]))
    return out
