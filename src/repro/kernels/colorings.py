"""Registry-facing fast-path implementations of the coloring heuristics.

Thin wrappers binding each heuristic's vertex order to the first-fit/chain
kernels with ``fast=True`` pinned and the redundant permutation re-check
skipped (the orders are permutations by construction).  These are what
:class:`~repro.core.algorithms.registry.AlgorithmSpec.fast_fn` points at;
:func:`~repro.core.algorithms.registry.color_with` falls back to the
reference implementation automatically for instances without a stencil
geometry.
"""

from __future__ import annotations

from repro.core.algorithms.bipartite_decomposition import bd_with_bound
from repro.core.coloring import Coloring
from repro.core.greedy_engine import greedy_color, greedy_recolor_pass
from repro.core.orderings import (
    clique_order,
    largest_first_order,
    line_by_line_order,
    smallest_last_order,
    zorder_order,
)
from repro.core.problem import IVCInstance


def gll_fast(instance: IVCInstance) -> Coloring:
    """GLL through the first-fit kernel (half-stencil reads)."""
    return greedy_color(
        instance, line_by_line_order(instance), algorithm="GLL",
        fast=True, check_order=False,
    )


def gzo_fast(instance: IVCInstance) -> Coloring:
    """GZO through the first-fit kernel (cached Morton order)."""
    return greedy_color(
        instance, zorder_order(instance), algorithm="GZO",
        fast=True, check_order=False,
    )


def glf_fast(instance: IVCInstance) -> Coloring:
    """GLF through the first-fit kernel (heaviest-first order)."""
    return greedy_color(
        instance, largest_first_order(instance), algorithm="GLF",
        fast=True, check_order=False,
    )


def gsl_fast(instance: IVCInstance) -> Coloring:
    """GSL through the first-fit kernel (the order itself stays sequential)."""
    return greedy_color(
        instance, smallest_last_order(instance), algorithm="GSL",
        fast=True, check_order=False,
    )


def bd_fast(instance: IVCInstance) -> Coloring:
    """BD through the vectorized chain kernel."""
    coloring, _bound = bd_with_bound(instance, fast=True)
    return coloring


def bdp_fast(instance: IVCInstance) -> Coloring:
    """BDP: chain-kernel BD + vectorized order + first-fit recolor pass."""
    coloring, _bound = bd_with_bound(instance, fast=True)
    order = clique_order(instance, coloring.starts, fast=True)
    starts = greedy_recolor_pass(instance, coloring.starts, order, fast=True)
    return Coloring(instance=instance, starts=starts, algorithm="BDP")
