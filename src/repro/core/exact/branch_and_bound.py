"""Pure-Python exact solver: CSP decision search + binary-search optimization.

The decision problem "is there a coloring with ``maxcolor <= K``" is a finite
CSP: each positive-weight vertex has the domain ``{0, ..., K - w(v)}`` and
each conflict edge forbids overlapping placements.  :func:`decide_coloring`
searches it by DFS with minimum-remaining-values variable ordering and
forward checking, over left-justified colorings only (every start is 0 or
the end of a neighbor's interval); :func:`solve_exact` wraps it in a binary
search between a lower bound and a heuristic upper bound (feasibility is
monotone in ``K``).

This is exponential in the worst case — Section IV proves the 3D decision
problem NP-complete — but comfortably handles the paper's small certificates
(Figures 2 and 3) and the NAE-3SAT reduction gadgets, and serves as an
independent cross-check of the MILP.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bounds import lower_bound
from repro.core.coloring import Coloring
from repro.core.problem import IVCInstance


class SearchBudgetExceeded(Exception):
    """Raised when the DFS exceeds its node budget (result unknown)."""


def _forward_check(
    domains: list[np.ndarray],
    assigned: np.ndarray,
    neighbors: list[np.ndarray],
    weights: np.ndarray,
    v: int,
    start: int,
) -> Optional[list[tuple[int, np.ndarray]]]:
    """Prune neighbor domains after placing ``v`` at ``start``.

    Removes from each unassigned neighbor ``u`` every start ``s`` with
    ``s < start + w(v)`` and ``start < s + w(u)``.  Returns the undo list of
    ``(vertex, previous_domain)`` pairs, or ``None`` if a domain emptied.
    """
    undo: list[tuple[int, np.ndarray]] = []
    end = start + weights[v]
    for u in neighbors[v]:
        u = int(u)
        if assigned[u] or weights[u] == 0:
            continue
        dom = domains[u]
        keep = (dom >= end) | (dom + weights[u] <= start)
        if keep.all():
            continue
        newdom = dom[keep]
        if len(newdom) == 0:
            for uu, prev in undo:
                domains[uu] = prev
            return None
        undo.append((u, dom))
        domains[u] = newdom
    return undo


def decide_coloring(
    instance: IVCInstance,
    k: int,
    node_budget: int = 2_000_000,
) -> Optional[Coloring]:
    """A coloring with ``maxcolor <= k``, or ``None`` if none exists.

    DFS over positive-weight vertices with MRV ordering and forward
    checking.  Zero-weight vertices are placed at 0 unconditionally.

    Only left-justified colorings are searched: every start is 0 or the end
    of a positive-weight neighbor.  An interval that is neither slides down
    by one without overlapping anything, so if any coloring fits in ``k``
    a left-justified one does too.  The rule prunes as soon as a placed
    vertex has all its neighbors placed; without it, proving an odd cycle
    infeasible just below its optimum takes millions of nodes.

    Raises
    ------
    SearchBudgetExceeded
        After ``node_budget`` DFS nodes — the answer is then unknown.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    n = instance.num_vertices
    weights = instance.weights
    starts = np.zeros(n, dtype=np.int64)
    active = [int(v) for v in np.flatnonzero(weights > 0)]
    if not active:
        return Coloring(instance=instance, starts=starts, algorithm="BnB-decide")
    if int(weights.max()) > k:
        return None

    neighbors = [instance.graph.neighbors(v) for v in range(n)]
    domains: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    for v in active:
        domains[v] = np.arange(k - int(weights[v]) + 1, dtype=np.int64)
    assigned = np.zeros(n, dtype=bool)
    nodes = 0
    heavy = [[int(u) for u in neighbors[v] if weights[u] > 0] for v in range(n)]

    def justified(v: int) -> bool:
        """False if a placed vertex at or next to ``v`` has all its
        neighbors placed yet starts neither at 0 nor at a neighbor's end."""
        for u in (v, *heavy[v]):
            if not assigned[u] or not all(assigned[x] for x in heavy[u]):
                continue
            su = starts[u]
            if su != 0 and all(starts[x] + weights[x] != su for x in heavy[u]):
                return False
        return True

    def dfs(remaining: int) -> bool:
        nonlocal nodes
        if remaining == 0:
            return True
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(f"exceeded {node_budget} nodes at k={k}")
        # MRV: the unassigned active vertex with the smallest domain.
        best_v = -1
        best_size = None
        for v in active:
            if not assigned[v]:
                size = len(domains[v])
                if best_size is None or size < best_size:
                    best_v, best_size = v, size
                    if size <= 1:
                        break
        v = best_v
        assigned[v] = True
        for s in domains[v]:
            s = int(s)
            undo = _forward_check(domains, assigned, neighbors, weights, v, s)
            if undo is not None:
                starts[v] = s
                if justified(v) and dfs(remaining - 1):
                    return True
                for u, prev in undo:
                    domains[u] = prev
        assigned[v] = False
        return False

    if dfs(len(active)):
        return Coloring(instance=instance, starts=starts, algorithm="BnB-decide").check()
    return None


def solve_exact(
    instance: IVCInstance,
    upper: Optional[int] = None,
    node_budget: int = 2_000_000,
) -> Coloring:
    """Provably optimal coloring by binary search on ``k``.

    ``k`` ranges between :func:`~repro.core.bounds.lower_bound` (or the max
    weight for geometry-free instances) and a heuristic upper bound.
    Feasibility is monotone in ``k``, so binary search applies.
    """
    n = instance.num_vertices
    if n == 0:
        return Coloring(
            instance=instance, starts=np.empty(0, dtype=np.int64), algorithm="BnB"
        )
    if upper is None:
        from repro.core.exact.milp import _heuristic_ub

        upper = _heuristic_ub(instance)
    if instance.geometry is not None:
        lo = lower_bound(instance)
    else:
        from repro.core.bounds import maxpair_bound

        lo = maxpair_bound(instance)
    hi = int(upper)
    best: Optional[Coloring] = decide_coloring(instance, hi, node_budget)
    if best is None:
        raise AssertionError("heuristic upper bound was infeasible — bug")
    while lo < hi:
        mid = (lo + hi) // 2
        attempt = decide_coloring(instance, mid, node_budget)
        if attempt is None:
            lo = mid + 1
        else:
            best = attempt
            hi = mid
    return best.with_algorithm("BnB")
