"""repro — interval vertex coloring of 9-pt and 27-pt stencil graphs.

A faithful reproduction of *“Coloring the Vertices of 9-pt and 27-pt
Stencils with Intervals”* (Durrman & Saule, IPPS 2022): the combinatorial
problem, its lower bounds and exact special cases, the seven heuristics of
the paper's evaluation (GLL, GZO, GLF, GKF, SGK, BD, BDP), exact MILP and
branch-and-bound solvers, the NAE-3SAT NP-completeness reduction, the
spatio-temporal instance pipeline, and the STKDE application integration.

Quick start::

    import numpy as np
    from repro.api import color

    weights = np.random.default_rng(0).integers(0, 50, size=(32, 32))
    result = color(weights, "BDP", validate=True)
    print(result.maxcolor, result.provenance)

:mod:`repro.api` is the stable entry point (``docs/api.md`` explains how it
maps onto the historical call styles).  ``color_with`` and ``run_grid`` live
in their home packages, :mod:`repro.core` and :mod:`repro.engine`.
"""

from repro.core import (
    ALGORITHMS,
    EXTENDED_ALGORITHMS,
    REGISTRY,
    AlgorithmSpec,
    Coloring,
    IVCInstance,
    Registry,
    UnknownAlgorithmError,
    available_algorithms,
    bipartite_decomposition,
    bipartite_decomposition_post,
    clique_block_bound,
    greedy_color,
    greedy_largest_clique_first,
    greedy_largest_first,
    greedy_line_by_line,
    greedy_zorder,
    lower_bound,
    maxpair_bound,
    odd_cycle_bound,
    smart_greedy_largest_clique_first,
)
from repro.engine import RunRecord
from repro.experiments import SuiteExecutionError, SuiteResult, run_suite
from repro.stencil import StencilGrid
from repro import api
from repro.api import ColoringResult, color

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "Coloring",
    "ColoringResult",
    "EXTENDED_ALGORITHMS",
    "IVCInstance",
    "REGISTRY",
    "Registry",
    "RunRecord",
    "StencilGrid",
    "SuiteExecutionError",
    "SuiteResult",
    "UnknownAlgorithmError",
    "__version__",
    "api",
    "available_algorithms",
    "color",
    "bipartite_decomposition",
    "bipartite_decomposition_post",
    "clique_block_bound",
    "greedy_color",
    "greedy_largest_clique_first",
    "greedy_largest_first",
    "greedy_line_by_line",
    "greedy_zorder",
    "lower_bound",
    "maxpair_bound",
    "odd_cycle_bound",
    "run_suite",
    "smart_greedy_largest_clique_first",
]
