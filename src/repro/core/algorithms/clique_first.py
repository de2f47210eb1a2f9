"""Clique-first greedy heuristics: GKF and SGK (Section V.A).

The cliques of a 9-pt stencil are its 2×2 blocks (:math:`K_4`); of a 27-pt
stencil its 2×2×2 blocks (:math:`K_8`).  Since the heaviest clique usually
sets ``maxcolor``, both heuristics color cliques in non-increasing order of
total weight, leaving vertices already colored by an earlier clique untouched
(the "greedy principle").

* **GKF** colors the uncolored vertices of each clique in arbitrary
  (id) order.
* **SGK** is smarter inside each clique: in 2D it tries all ``4!``
  permutations of the clique's uncolored vertices and commits the one
  minimizing the clique's resulting top color; in 3D trying ``8!``
  permutations per block is too slow (as the paper found), so the uncolored
  vertices are simply sorted by non-increasing weight.

A vertex is thus first-fit at the first block that holds it, so GKF, 3D SGK
and SGK-ws (the weight-sorted rule in any dimension) are each one first-fit
pass in :func:`~repro.core.orderings.clique_order`.  Only 2D SGK's search
walks the blocks here.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from repro.core.coloring import Coloring
from repro.core.greedy_engine import UNCOLORED, first_fit_start, greedy_color
from repro.core.orderings import clique_order
from repro.core.problem import IVCInstance


def _sorted_blocks(instance: IVCInstance) -> np.ndarray:
    """The :math:`K_4` blocks of a 2D grid by non-increasing weight sum
    (stable)."""
    geo = instance.geometry
    sums = geo.block_weight_sums(instance.weights)
    return geo.blocks[np.argsort(-sums, kind="stable")]


def greedy_largest_clique_first(instance: IVCInstance) -> Coloring:
    """Greedy Largest Clique First (GKF)."""
    key = np.zeros(instance.num_vertices, dtype=np.int64)
    return greedy_color(
        instance, clique_order(instance, key), algorithm="GKF", check_order=False
    )


def _best_permutation_fill(
    instance: IVCInstance, starts: np.ndarray, block: np.ndarray
) -> None:
    """Color a block's uncolored vertices with the best of all permutations.

    Tries every order of the block's currently uncolored vertices, greedily
    first-fitting each, and commits the order whose resulting top color over
    the whole block is smallest (first such order on ties).

    The neighbor-interval snapshot of each uncolored vertex is hoisted out of
    the ``4!``-permutation loop: intervals of already-committed neighbors are
    fixed for the whole block, so each permutation only patches in the few
    in-block assignments that vary (first fit sorts, so the append order is
    immaterial — identical results to rebuilding from CSR every time).
    """
    weights = instance.weights
    graph = instance.graph
    uncolored = [int(v) for v in block if starts[v] == UNCOLORED]
    if not uncolored:
        return
    in_block = set(uncolored)
    fixed: dict[int, tuple[list[int], list[int]]] = {}
    free: dict[int, list[tuple[int, int]]] = {}
    for v in uncolored:
        ns: list[int] = []
        ne: list[int] = []
        fr: list[tuple[int, int]] = []
        for u in graph.neighbors(v):
            u = int(u)
            w_u = int(weights[u])
            if u in in_block:
                if w_u > 0:
                    fr.append((u, w_u))
                continue
            s = int(starts[u])
            if s != UNCOLORED and w_u > 0:
                ns.append(s)
                ne.append(s + w_u)
        fixed[v] = (ns, ne)
        free[v] = fr
    colored_top = 0
    for v in block:
        v = int(v)
        if starts[v] != UNCOLORED:
            colored_top = max(colored_top, int(starts[v]) + int(weights[v]))
    best_assign: dict[int, int] | None = None
    best_score = None
    for perm in permutations(uncolored):
        assign: dict[int, int] = {}
        for v in perm:
            base_ns, base_ne = fixed[v]
            ns = list(base_ns)
            ne = list(base_ne)
            for u, w_u in free[v]:
                s = assign.get(u)
                if s is not None:
                    ns.append(s)
                    ne.append(s + w_u)
            assign[v] = first_fit_start(ns, ne, int(weights[v]))
        top = max(
            colored_top,
            max(assign[v] + int(weights[v]) for v in uncolored),
        )
        if best_score is None or top < best_score:
            best_score = top
            best_assign = assign
    assert best_assign is not None
    for v, s in best_assign.items():
        starts[v] = s


def smart_greedy_largest_clique_first(instance: IVCInstance) -> Coloring:
    """Smart Greedy Largest Clique First (SGK).

    2D: exhaustive ``4!`` permutation search per :math:`K_4`.
    3D: weight-sorted vertices per :math:`K_8` (the paper's shortcut — the
    ``8!`` search was too slow even for the authors), i.e. SGK-ws.
    """
    if not instance.is_2d or min(instance.geometry.shape) < 2:
        return _weight_sorted(instance, "SGK")
    starts = np.full(instance.num_vertices, UNCOLORED, dtype=np.int64)
    for block in _sorted_blocks(instance):
        _best_permutation_fill(instance, starts, block)
    return Coloring(instance=instance, starts=starts, algorithm="SGK")


def _weight_sorted(instance: IVCInstance, algorithm: str) -> Coloring:
    """First fit in the clique order, heaviest first inside each block."""
    order = clique_order(instance, -instance.weights)
    return greedy_color(instance, order, algorithm=algorithm, check_order=False)


def smart_greedy_weight_sorted(instance: IVCInstance) -> Coloring:
    """SGK variant using the 3D weight-sorted rule in any dimension.

    Ablation: quantifies what the 2D exhaustive permutation search buys over
    simple weight sorting inside each clique.
    """
    return _weight_sorted(instance, "SGK-ws")
