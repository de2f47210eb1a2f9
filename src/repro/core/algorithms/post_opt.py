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

That is :func:`repro.core.orderings.clique_order` keyed by the starts.
:func:`post_optimize` exposes the same sweep for any coloring (used by the
ablation benchmarks to post-optimize other heuristics too).
"""

from __future__ import annotations

import numpy as np

from repro.core.coloring import Coloring
from repro.core.greedy_engine import greedy_recolor_pass
from repro.core.orderings import clique_order


def post_optimize(coloring: Coloring, suffix: str = "+P") -> Coloring:
    """Apply the clique-guided recoloring sweep to any valid coloring.

    ``maxcolor`` never increases.  The result is labeled
    ``<algorithm><suffix>``.
    """
    instance = coloring.instance
    order = clique_order(instance, coloring.starts)
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
        order = clique_order(instance, starts)
        new = greedy_recolor_pass(instance, starts, order)
        if np.array_equal(new, starts):
            break
        starts = new
    return Coloring(
        instance=instance,
        starts=starts,
        algorithm=f"{coloring.algorithm}{suffix}",
    )
