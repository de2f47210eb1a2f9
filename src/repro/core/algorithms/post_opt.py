"""Greedy post-optimization (the "+ Post" of BDP, Section V.B).

BD colors by construction rather than by scarcity, so vertices can sit at
high colors with the low colors unused around them.  The fix is a greedy
recoloring sweep: each vertex is re-placed at the lowest interval compatible
with its neighbors' current intervals.  The sweep order matters; the paper
orders vertices by their cliques:

1. list every :math:`K_4` (2D) / :math:`K_8` (3D) block,
2. sort blocks by non-increasing total weight,
3. inside each block sort vertices by increasing current start,
4. keep each vertex's first occurrence.

:func:`post_optimize` exposes the same sweep for any coloring (used by the
ablation benchmarks to post-optimize other heuristics too).
"""

from __future__ import annotations

import numpy as np

from repro.core.coloring import Coloring
from repro.core.greedy_engine import greedy_recolor_pass
from repro.core.problem import IVCInstance


def bdp_recolor_order(
    instance: IVCInstance, starts: np.ndarray, *, fast: bool | None = None
) -> np.ndarray:
    """The clique-guided recoloring order of Section V.B.

    Returns a permutation of all vertices: block-by-block (blocks by
    non-increasing weight sum), vertices within a block by increasing current
    start, first occurrence kept; any vertex outside every block (thin grids)
    is appended in id order.  With fast paths enabled (the default) the
    block scan runs through the vectorized
    :func:`repro.kernels.chains.bdp_recolor_order_fast` — identical order.
    """
    geo = instance.geometry
    if geo is None:
        raise ValueError("the BDP order requires a stencil geometry")
    starts = np.asarray(starts, dtype=np.int64)
    n = instance.num_vertices
    if min(geo.shape) < 2:
        return np.arange(n, dtype=np.int64)
    sums = geo.block_weight_sums(instance.weights)
    from repro.runtime.context import resolve_fast

    if resolve_fast(fast):
        from repro.kernels.chains import bdp_recolor_order_fast

        return bdp_recolor_order_fast(geo.shape, sums, starts)
    blocks = geo.k4_blocks if instance.is_2d else geo.k8_blocks
    block_order = np.argsort(-sums, kind="stable")
    seen = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    for b in block_order:
        block = blocks[b]
        inner = block[np.argsort(starts[block], kind="stable")]
        for v in inner:
            if not seen[v]:
                seen[v] = True
                order[pos] = v
                pos += 1
    for v in np.flatnonzero(~seen):
        order[pos] = v
        pos += 1
    return order


def post_optimize(coloring: Coloring, suffix: str = "+P") -> Coloring:
    """Apply the clique-guided recoloring sweep to any valid coloring.

    ``maxcolor`` never increases.  The result is labeled
    ``<algorithm><suffix>``.
    """
    instance = coloring.instance
    order = bdp_recolor_order(instance, coloring.starts)
    starts = greedy_recolor_pass(instance, coloring.starts, order)
    return Coloring(
        instance=instance,
        starts=starts,
        algorithm=f"{coloring.algorithm}{suffix}",
    )


def iterated_post_optimize(
    coloring: Coloring, max_passes: int = 10, suffix: str = "+IP"
) -> Coloring:
    """Repeat the recoloring sweep until a fixed point (Culberson-style
    iterated greedy, the post-optimization extension the paper cites).

    Each sweep recomputes the clique-guided order from the current starts and
    recolors; sweeps stop when no start moves or after ``max_passes``.
    ``maxcolor`` is non-increasing across sweeps.
    """
    instance = coloring.instance
    starts = np.asarray(coloring.starts, dtype=np.int64)
    for _ in range(max_passes):
        order = bdp_recolor_order(instance, starts)
        new = greedy_recolor_pass(instance, starts, order)
        if np.array_equal(new, starts):
            break
        starts = new
    return Coloring(
        instance=instance,
        starts=starts,
        algorithm=f"{coloring.algorithm}{suffix}",
    )
