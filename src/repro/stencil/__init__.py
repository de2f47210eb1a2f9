"""Stencil graph substrates.

This subpackage provides the graph machinery that the interval-coloring
algorithms operate on:

* :class:`~repro.stencil.grid.StencilGrid` — the 9-pt (Moore) 2D stencil of
  2DS-IVC and the 27-pt 3D stencil of 3DS-IVC, one class for both: their
  5-pt / 7-pt bipartite relaxations and their :math:`K_4` / :math:`K_8`
  blocks.
* :mod:`~repro.stencil.zorder` — Morton (Z-order) indexing used by the
  Greedy Z-Order heuristic.
* :mod:`~repro.stencil.generic` — CSR adjacency for arbitrary graphs (paths,
  cycles, cliques, bipartite graphs) and a bridge to :mod:`networkx`.

All adjacency is stored in CSR form (``indptr``/``indices`` numpy arrays) so
the coloring inner loops are gather-and-scan over contiguous memory.
"""

from repro.stencil.generic import (
    CSRGraph,
    clique_graph,
    cycle_graph,
    from_edges,
    from_networkx,
    path_graph,
    star_graph,
    to_networkx,
)
from repro.stencil.grid import StencilGrid
from repro.stencil.zorder import morton_argsort, morton_key_2d, morton_key_3d

__all__ = [
    "CSRGraph",
    "StencilGrid",
    "clique_graph",
    "cycle_graph",
    "from_edges",
    "from_networkx",
    "morton_argsort",
    "morton_key_2d",
    "morton_key_3d",
    "path_graph",
    "star_graph",
    "to_networkx",
]
