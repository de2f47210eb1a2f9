"""Closed-form optimal colorings for the special graphs of Section III.

Each function returns a :class:`~repro.core.coloring.Coloring` that is
*provably optimal* for its graph class:

* cliques — stack the weights: ``maxcolor* = Σ w(v)``;
* bipartite graphs (hence chains, stars, trees, even cycles) — one side
  0-aligned, the other top-aligned: ``maxcolor* = max_{(u,v)∈E} w(u)+w(v)``;
* odd cycles — Theorem 1: ``maxcolor* = max(maxpair, minchain3)``;
* the 5-pt / 7-pt stencil relaxations — bipartite by grid parity, the
  polynomial cases highlighted in the abstract.
"""

from __future__ import annotations

import numpy as np

from repro.core.bounds import cycle_minchain3, odd_cycle_optimum
from repro.core.coloring import Coloring
from repro.core.problem import IVCInstance
from repro.stencil.generic import is_bipartite


def color_clique(instance: IVCInstance) -> Coloring:
    """Optimal coloring of a complete graph: prefix-sum stacking.

    No two vertices may share any color, so listing vertices in any order and
    stacking their intervals is optimal with ``maxcolor = Σ w``.
    """
    n = instance.num_vertices
    expected_edges = n * (n - 1) // 2
    if instance.num_edges != expected_edges:
        raise ValueError("color_clique requires a complete graph")
    starts = np.concatenate([[0], np.cumsum(instance.weights[:-1])]).astype(np.int64)
    return Coloring(instance=instance, starts=starts, algorithm="exact-clique")


def color_bipartite(instance: IVCInstance) -> Coloring:
    """Optimal coloring of a bipartite graph (Section III.B).

    Side A is colored ``[0, w)``; side B is colored ``[M - w, M)`` where
    ``M = max_{(u,v)∈E} w(u) + w(v)`` — disjoint across every edge by the
    definition of ``M``, and ``M`` is a trivial lower bound.
    """
    ok, side = is_bipartite(instance.graph)
    if not ok:
        raise ValueError("color_bipartite requires a bipartite graph")
    edges = instance.graph.edges()
    w = instance.weights
    if len(edges):
        m = int((w[edges[:, 0]] + w[edges[:, 1]]).max())
    else:
        m = int(w.max(initial=0))
    m = max(m, int(w.max(initial=0)))
    starts = np.where(side == 0, 0, m - w).astype(np.int64)
    # Isolated vertices sit on side 0 at start 0 regardless.
    return Coloring(instance=instance, starts=starts, algorithm="exact-bipartite")


def color_chain(instance: IVCInstance) -> Coloring:
    """Optimal coloring of a path graph (a chain is bipartite)."""
    return color_bipartite(instance).with_algorithm("exact-chain")


def color_star(instance: IVCInstance) -> Coloring:
    """Optimal coloring of a star (bipartite: center vs leaves)."""
    return color_bipartite(instance).with_algorithm("exact-star")


def color_even_cycle(instance: IVCInstance) -> Coloring:
    """Optimal coloring of an even cycle (bipartite by parity)."""
    return color_bipartite(instance).with_algorithm("exact-even-cycle")


def color_odd_cycle(instance: IVCInstance) -> Coloring:
    """Optimal coloring of an odd cycle — the constructive side of Theorem 1.

    Expects the instance's graph to be the cycle ``0 - 1 - ... - (n-1) - 0``.
    Rotates so the minimum-weight chain of three starts at vertex 0, then
    colors per Lemma 2: vertex 0 at ``[0, w0)``, vertex 1 at ``[w0, w0+w1)``,
    vertex 2 top-aligned, the rest alternating bottom/top-aligned.  Uses
    exactly ``max(maxpair, minchain3)`` colors.
    """
    n = instance.num_vertices
    if n < 3 or n % 2 == 0:
        raise ValueError("color_odd_cycle requires an odd cycle with n >= 3")
    for v in range(n):
        expected = sorted(((v - 1) % n, (v + 1) % n))
        if sorted(int(u) for u in instance.graph.neighbors(v)) != expected:
            raise ValueError("graph is not the cycle 0-1-...-(n-1)-0")
    w = instance.weights
    # Locate the minchain3: rotate so it sits on (0, 1, 2).
    triples = w + np.roll(w, -1) + np.roll(w, -2)
    shift = int(np.argmin(triples))
    assert int(triples[shift]) == cycle_minchain3(w)
    m = odd_cycle_optimum(w)
    starts = np.zeros(n, dtype=np.int64)
    # Positions are relative to the rotation: rel = (v - shift) mod n.
    for rel in range(n):
        v = (rel + shift) % n
        if rel == 0:
            starts[v] = 0
        elif rel == 1:
            starts[v] = w[(shift + 0) % n]
        elif rel == 2:
            starts[v] = m - w[v]
        elif rel % 2 == 1:
            starts[v] = 0
        else:
            starts[v] = m - w[v]
    return Coloring(instance=instance, starts=starts, algorithm="exact-odd-cycle")


def _parity_relaxation(instance: IVCInstance, label: str) -> Coloring:
    """Optimal coloring of a stencil's axis-neighbour relaxation, bipartite
    by the parity of the coordinate sum."""
    geo = instance.geometry
    relaxed = IVCInstance(graph=geo.csr_axis, weights=instance.weights)
    parity = sum(geo.coords(np.arange(instance.num_vertices))) % 2
    edges = relaxed.graph.edges()
    w = instance.weights
    if len(edges):
        m = int((w[edges[:, 0]] + w[edges[:, 1]]).max())
    else:
        m = int(w.max(initial=0))
    m = max(m, int(w.max(initial=0)))
    starts = np.where(parity == 0, 0, m - w).astype(np.int64)
    return Coloring(instance=relaxed, starts=starts, algorithm=label)


def color_relaxation_5pt(instance: IVCInstance) -> Coloring:
    """Optimal coloring of the 5-pt relaxation of a 2DS-IVC instance.

    The von Neumann stencil is bipartite by the parity of ``i + j``, so it is
    solvable in polynomial time (the relaxation result of the abstract).  The
    returned coloring is valid for the 5-pt graph, *not* for the full 9-pt
    stencil.
    """
    if not instance.is_2d:
        raise ValueError("5-pt relaxation requires a 2DS-IVC instance")
    return _parity_relaxation(instance, "exact-5pt")


def color_relaxation_7pt(instance: IVCInstance) -> Coloring:
    """Optimal coloring of the 7-pt relaxation of a 3DS-IVC instance.

    Bipartite by the parity of ``i + j + k``; valid for the 7-pt graph only.
    """
    if not instance.is_3d:
        raise ValueError("7-pt relaxation requires a 3DS-IVC instance")
    return _parity_relaxation(instance, "exact-7pt")
