"""Local-search refinement of interval colorings (future-work extension).

The paper's conclusion asks for heuristics beating BDP/SGK; this module adds
a deterministic local search on top of any valid coloring:

* **compaction moves** — the greedy recoloring sweep (never worse);
* **critical-vertex kicks** — vertices whose interval *ends at* ``maxcolor``
  are forcibly re-placed at the lowest feasible start **above 0 … or**, when
  stuck, one blocking neighbor is lifted out of the way first (a 1-level
  ejection chain), followed by a compaction sweep.

The search is seeded deterministically, keeps the best coloring seen, and
stops after ``max_rounds`` rounds without improvement, so results are
reproducible.  Guarantee: output ``maxcolor`` ≤ input ``maxcolor``.
"""

from __future__ import annotations

import numpy as np

from repro.core.coloring import Coloring
from repro.core.greedy_engine import first_fit_start, greedy_recolor_pass
from repro.core.problem import IVCInstance


def _neighbor_intervals(instance: IVCInstance, starts: np.ndarray, v: int, skip: int = -1):
    """Starts/ends of v's colored positive neighbors, optionally skipping one."""
    ns, ne = [], []
    w = instance.weights
    for u in instance.graph.neighbors(v):
        u = int(u)
        if u == skip or w[u] == 0:
            continue
        ns.append(int(starts[u]))
        ne.append(int(starts[u] + w[u]))
    return ns, ne


def _maxcolor(instance: IVCInstance, starts: np.ndarray) -> int:
    if instance.num_vertices == 0:
        return 0
    return int((starts + instance.weights).max())


def _critical_vertices(instance: IVCInstance, starts: np.ndarray) -> np.ndarray:
    ends = starts + instance.weights
    top = ends.max(initial=0)
    return np.flatnonzero((ends == top) & (instance.weights > 0))


def _kick(instance: IVCInstance, starts: np.ndarray, v: int, rng: np.random.Generator) -> bool:
    """Try to pull critical vertex ``v`` below the current top color.

    First attempt a plain first-fit re-placement; if ``v`` is already at its
    first-fit position, lift one random blocking neighbor to the top and
    retry (ejection) — accepting only if the subsequent state is no worse.
    """
    w = int(instance.weights[v])
    top = _maxcolor(instance, starts)
    ns, ne = _neighbor_intervals(instance, starts, v)
    best = first_fit_start(ns, ne, w)
    if best < starts[v]:
        starts[v] = best
        return True
    # Ejection: move a blocking neighbor up, then retry v.  Blockers are
    # tried in a seeded random order until one yields a not-worse state.
    blockers = [
        int(u)
        for u in instance.graph.neighbors(v)
        if instance.weights[u] > 0 and starts[u] < starts[v]
    ]
    if not blockers:
        return False
    rng.shuffle(blockers)
    for u in blockers:
        saved_u, saved_v = int(starts[u]), int(starts[v])
        # Lift u to the lowest feasible position ignoring v, above v's start.
        nus, nue = _neighbor_intervals(instance, starts, u, skip=v)
        nus.append(0)
        nue.append(saved_v)  # forbid u from landing back under v's old start
        starts[u] = first_fit_start(nus, nue, int(instance.weights[u]))
        ns, ne = _neighbor_intervals(instance, starts, v)
        starts[v] = first_fit_start(ns, ne, w)
        if _maxcolor(instance, starts) > top or (
            starts[v] == saved_v and starts[u] == saved_u
        ):
            starts[u], starts[v] = saved_u, saved_v
            continue
        return True
    return False


def local_search(
    coloring: Coloring,
    max_rounds: int = 20,
    seed: int = 0,
) -> Coloring:
    """Refine a valid coloring; never returns a worse one.

    Each round: compaction sweep (clique-guided), then one kick attempt per
    critical vertex.  Stops after ``max_rounds`` rounds without improving
    ``maxcolor``.
    """
    from repro.core.greedy_engine import greedy_color

    instance = coloring.instance
    coloring.check()
    rng = np.random.default_rng(seed)
    starts = coloring.starts.copy()
    best = starts.copy()
    best_val = _maxcolor(instance, starts)
    stale = 0
    n = instance.num_vertices
    while stale < max_rounds:
        # Iterated greedy (Culberson, adapted to intervals): re-color from
        # scratch in ascending current-start order.  Each vertex's old start
        # stays feasible when its lower neighbors only moved down, so this
        # move is provably non-worsening.
        order = np.lexsort((rng.permutation(n), starts)).astype(np.int64)
        # Orders built by lexsort are permutations by construction, so the
        # O(n) re-validation is skipped inside the search loop.
        starts = greedy_color(instance, order, check_order=False).starts.copy()
        # Kick the vertices pinning maxcolor (may use 1-level ejections).
        for v in _critical_vertices(instance, starts):
            _kick(instance, starts, int(v), rng)
        starts = greedy_recolor_pass(
            instance, starts, rng.permutation(n).astype(np.int64)
        )
        val = _maxcolor(instance, starts)
        if val < best_val:
            best_val = val
            best = starts.copy()
            stale = 0
        else:
            stale += 1
            # Exploration: restart the walk from a noise-perturbed order;
            # may worsen the current state, the best is kept separately.
            noise = rng.integers(0, max(best_val // 8, 2), size=n)
            order = np.lexsort((rng.permutation(n), starts + noise)).astype(np.int64)
            starts = greedy_color(instance, order, check_order=False).starts.copy()
    return Coloring(
        instance=instance,
        starts=best,
        algorithm=f"{coloring.algorithm}+LS",
    ).check()
