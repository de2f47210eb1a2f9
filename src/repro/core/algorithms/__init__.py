"""The heuristics of Section V behind a uniform registry.

========================  =============================================
Name                      Algorithm
========================  =============================================
``GLL``                   Greedy Line-by-Line
``GZO``                   Greedy Z-Order
``GLF``                   Greedy Largest First
``GKF``                   Greedy Largest Clique First
``SGK``                   Smart Greedy Largest Clique First
``BD``                    Bipartite Decomposition (2-approx 2D / 4-approx 3D)
``BDP``                   Bipartite Decomposition + Post-optimization
========================  =============================================

Use :func:`color_with` to run one by name with timing, or call the
individual functions directly.
"""

from repro.core.algorithms.bipartite_decomposition import (
    bipartite_decomposition,
    bipartite_decomposition_post,
    chain_color,
)
from repro.core.algorithms.clique_first import (
    greedy_largest_clique_first,
    smart_greedy_largest_clique_first,
)
from repro.core.algorithms.greedy import (
    greedy_largest_first,
    greedy_line_by_line,
    greedy_zorder,
)
from repro.core.algorithms.post_opt import post_optimize
from repro.core.algorithms.registry import (
    ALGORITHMS,
    EXTENDED_ALGORITHMS,
    REGISTRY,
    AlgorithmSpec,
    Registry,
    UnknownAlgorithmError,
    available_algorithms,
    color_with,
)
from repro.core.orderings import clique_order

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "EXTENDED_ALGORITHMS",
    "REGISTRY",
    "Registry",
    "UnknownAlgorithmError",
    "available_algorithms",
    "bipartite_decomposition",
    "bipartite_decomposition_post",
    "chain_color",
    "clique_order",
    "color_with",
    "greedy_largest_clique_first",
    "greedy_largest_first",
    "greedy_line_by_line",
    "greedy_zorder",
    "post_optimize",
    "smart_greedy_largest_clique_first",
]
