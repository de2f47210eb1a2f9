"""Balanced rectilinear partitioning (the paper's citation [2], Nicol 1994).

The paper's Figure 1 decomposes space *rectilinearly*: cut positions per
axis, not necessarily uniform.  Uniform grids (``repro.data.voxelize``) are
the simplest rectilinear partitions; this module adds **load-balanced**
cuts: per-axis cut positions chosen to equalize the point marginals, subject
to the ``cell >= 2 x bandwidth`` width constraint that keeps the conflict
graph a 9-pt/27-pt stencil.

Balancing the per-region loads directly lowers the clique lower bound
(the heaviest 2×2 block of a balanced grid is lighter), which translates
into fewer colors — quantified by ``bench_ablation_partition.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import IVCInstance
from repro.data.events import PointDataset


def _feasible_cuts(prefix: np.ndarray, parts: int, min_slots: int, cap: float) -> list[int] | None:
    """Cut slots so every part's load <= cap and width >= min_slots, or None.

    Simple greedy extension is *not* safe under minimum widths (ending a
    part later can force heavy slots into a successor's mandatory window),
    so feasibility is decided by reachability DP: ``reach[k][j]`` — can the
    first ``j`` slots be cut into ``k`` valid parts — computed layer by
    layer with vectorized range marking, then cuts reconstructed backward.
    """
    total_slots = len(prefix) - 1
    layers = [np.zeros(total_slots + 1, dtype=bool) for _ in range(parts + 1)]
    layers[0][0] = True
    for k in range(1, parts + 1):
        sources = np.flatnonzero(layers[k - 1])
        if len(sources) == 0:
            return None
        lo = sources + min_slots
        # Furthest end per source with load <= cap.
        hi = np.searchsorted(prefix, prefix[sources] + cap, side="right") - 1
        hi = np.minimum(hi, total_slots)
        valid = lo <= hi
        if not np.any(valid):
            return None
        diff = np.zeros(total_slots + 2, dtype=np.int64)
        np.add.at(diff, lo[valid], 1)
        np.add.at(diff, hi[valid] + 1, -1)
        layers[k] = np.cumsum(diff[:-1]) > 0
    if not layers[parts][total_slots]:
        return None
    # Backward reconstruction.
    cuts = [total_slots]
    j = total_slots
    for k in range(parts, 0, -1):
        i_min = int(np.searchsorted(prefix, prefix[j] - cap, side="left"))
        i_max = j - min_slots
        window = np.flatnonzero(layers[k - 1][i_min : i_max + 1])
        assert len(window), "reconstruction must succeed on a feasible layer"
        i = i_min + int(window[-1])
        cuts.append(i)
        j = i
    cuts.reverse()
    assert cuts[0] == 0
    return cuts


def balance_cuts_1d(counts: np.ndarray, parts: int, min_slots: int = 1) -> np.ndarray:
    """Cut a 1D count array into ``parts`` contiguous parts minimizing the
    maximum part load, each part at least ``min_slots`` wide.

    Returns the cut indices (length ``parts + 1``, starting 0 and ending
    ``len(counts)``).  Exact: binary search over achievable max loads with a
    greedy feasibility check.
    """
    counts = np.asarray(counts, dtype=np.int64)
    slots = len(counts)
    if parts < 1:
        raise ValueError("parts must be positive")
    if min_slots < 1:
        raise ValueError("min_slots must be positive")
    if parts * min_slots > slots:
        raise ValueError(
            f"{parts} parts of >= {min_slots} slots do not fit in {slots} slots"
        )
    prefix = np.concatenate([[0], np.cumsum(counts)])
    # Binary search over integer cap values; exact for integer counts.
    lo, hi = 0, int(prefix[-1])
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        cuts = _feasible_cuts(prefix, parts, min_slots, mid)
        if cuts is not None:
            best = cuts
            hi = mid - 1
        else:
            lo = mid + 1
    assert best is not None  # cap = total is always feasible given widths fit
    return np.asarray(best, dtype=np.int64)


def part_loads(counts: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Per-part load sums for a cut vector."""
    prefix = np.concatenate([[0], np.cumsum(np.asarray(counts, dtype=np.int64))])
    return prefix[cuts[1:]] - prefix[cuts[:-1]]


def balanced_rectilinear_instance(
    dataset: PointDataset,
    axes: tuple[int, ...],
    parts: tuple[int, ...],
    bandwidths: tuple[float, ...],
    resolution: int = 256,
    name: str = "",
) -> IVCInstance:
    """A stencil instance from a load-balanced rectilinear decomposition.

    Parameters
    ----------
    axes:
        Dataset axes to partition: two of ``(0, 1, 2)`` for a 2DS-IVC
        instance, three for a 3DS-IVC instance.
    parts:
        Number of parts per chosen axis.
    bandwidths:
        Interaction radius per chosen axis; every part is at least twice
        this wide, so the conflict graph stays a Moore stencil.
    resolution:
        Slots per axis used to discretize cut positions.

    Cuts are chosen independently per axis on the point marginals (the
    rectilinear restriction), then the weights are the per-cell point counts
    under the non-uniform grid.
    """
    if len(axes) not in (2, 3) or len(parts) != len(axes) or len(bandwidths) != len(axes):
        raise ValueError("axes, parts, bandwidths must align and be 2D or 3D")
    edges_per_axis = []
    for axis, n_parts, bandwidth in zip(axes, parts, bandwidths):
        lo, hi = dataset.extent[axis]
        span = hi - lo
        if 2.0 * bandwidth * n_parts > span + 1e-12:
            raise ValueError(
                f"axis {axis}: {n_parts} parts of >= {2 * bandwidth} do not fit in {span}"
            )
        slot_width = span / resolution
        min_slots = max(1, int(np.ceil(2.0 * bandwidth / slot_width)))
        slot_idx = np.clip(
            ((dataset.points[:, axis] - lo) / span * resolution).astype(np.int64),
            0,
            resolution - 1,
        )
        marginal = np.bincount(slot_idx, minlength=resolution)
        cuts = balance_cuts_1d(marginal, n_parts, min_slots=min_slots)
        edges_per_axis.append(lo + cuts.astype(np.float64) * slot_width)
    # Histogram with non-uniform bin edges.
    coords = [dataset.points[:, axis] for axis in axes]
    grid, _ = np.histogramdd(np.column_stack(coords), bins=edges_per_axis)
    grid = grid.astype(np.int64)
    label = name or f"{dataset.name}-balanced-{'x'.join(map(str, parts))}"
    metadata = {
        "dataset": dataset.name,
        "partition": "balanced-rectilinear",
        "axes": tuple(int(a) for a in axes),
        "cut_edges": [e.tolist() for e in edges_per_axis],
    }
    return IVCInstance.from_grid(grid, name=label, metadata=metadata)


def uniform_rectilinear_instance(
    dataset: PointDataset,
    axes: tuple[int, ...],
    parts: tuple[int, ...],
    name: str = "",
) -> IVCInstance:
    """The uniform-grid counterpart of :func:`balanced_rectilinear_instance`
    (same part counts, equal-width cells) for ablation comparisons."""
    edges_per_axis = [
        np.linspace(dataset.extent[axis][0], dataset.extent[axis][1], n + 1)
        for axis, n in zip(axes, parts)
    ]
    coords = [dataset.points[:, axis] for axis in axes]
    grid, _ = np.histogramdd(np.column_stack(coords), bins=edges_per_axis)
    grid = grid.astype(np.int64)
    label = name or f"{dataset.name}-uniform-{'x'.join(map(str, parts))}"
    return IVCInstance.from_grid(grid, name=label)
