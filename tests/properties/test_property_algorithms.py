"""Property-based tests for the coloring algorithms and bounds."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.algorithms.registry import ALGORITHMS, color_with
from repro.core.bounds import (
    clique_block_bound,
    lower_bound,
    maxpair_bound,
    odd_cycle_optimum,
)
from repro.core.problem import IVCInstance

grids_2d = st.tuples(st.integers(2, 5), st.integers(2, 5))
grids_3d = st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 3))


@given(shape=grids_2d, seed=st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_all_algorithms_valid_and_bounded_2d(shape, seed):
    rng = np.random.default_rng(seed)
    inst = IVCInstance.from_grid_2d(rng.integers(0, 15, size=shape))
    lb = lower_bound(inst)
    for name in ALGORITHMS:
        coloring = color_with(inst, name)
        assert coloring.is_valid(), name
        assert coloring.maxcolor >= lb, name


@given(shape=grids_3d, seed=st.integers(0, 100_000))
@settings(max_examples=12, deadline=None)
def test_all_algorithms_valid_and_bounded_3d(shape, seed):
    rng = np.random.default_rng(seed)
    inst = IVCInstance.from_grid_3d(rng.integers(0, 10, size=shape))
    lb = lower_bound(inst)
    for name in ALGORITHMS:
        coloring = color_with(inst, name)
        assert coloring.is_valid(), name
        assert coloring.maxcolor >= lb, name


@given(
    shape=st.one_of(grids_2d, grids_3d),
    seed=st.integers(0, 100_000),
    top=st.integers(0, 20),
    zeros=st.floats(0, 1),
)
@settings(max_examples=60, deadline=None)
def test_clique_block_bound_is_the_cheap_lower_bound(shape, seed, top, zeros):
    # With every axis at least 2, each stencil edge lies in a unit block
    # and weights are non-negative, so no pair outweighs its block: the
    # cheap lower bound is the clique-block bound alone.
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, top + 1, size=shape)
    weights[rng.random(size=shape) < zeros] = 0
    inst = IVCInstance.from_grid(weights)
    assert maxpair_bound(inst) <= clique_block_bound(inst)
    assert lower_bound(inst) == clique_block_bound(inst)


@given(shape=grids_2d, seed=st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_bd_within_twice_its_bound(shape, seed):
    from repro.core.algorithms.bipartite_decomposition import bd_with_bound

    rng = np.random.default_rng(seed)
    inst = IVCInstance.from_grid_2d(rng.integers(0, 20, size=shape))
    coloring, rc = bd_with_bound(inst)
    assert coloring.maxcolor <= 2 * rc


@given(shape=grids_2d, seed=st.integers(0, 100_000))
@settings(max_examples=15, deadline=None)
def test_bdp_never_worse_than_bd(shape, seed):
    rng = np.random.default_rng(seed)
    inst = IVCInstance.from_grid_2d(rng.integers(0, 20, size=shape))
    assert color_with(inst, "BDP").maxcolor <= color_with(inst, "BD").maxcolor


@given(
    weights=st.lists(st.integers(1, 15), min_size=3, max_size=9).filter(
        lambda w: len(w) % 2 == 1
    )
)
@example(weights=[11, 13, 13, 13, 13, 12, 12, 13, 13])  # once over 2M nodes
@settings(max_examples=30, deadline=None)
def test_odd_cycle_theorem_against_exact(weights):
    """Theorem 1 cross-checked against the independent CSP solver."""
    from repro.core.exact.branch_and_bound import solve_exact
    from repro.core.exact.special_cases import color_odd_cycle
    from repro.stencil.generic import cycle_graph

    inst = IVCInstance.from_graph(cycle_graph(len(weights)), weights)
    theorem = odd_cycle_optimum(weights)
    constructed = color_odd_cycle(inst)
    assert constructed.is_valid()
    assert constructed.maxcolor == theorem
    assert solve_exact(inst).maxcolor == theorem


@given(
    weights=st.lists(st.integers(0, 12), min_size=2, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_chain_color_optimal(weights):
    from repro.core.algorithms.bipartite_decomposition import chain_color

    starts, rc = chain_color(np.asarray(weights))
    w = np.asarray(weights)
    ends = starts + w
    # Validity along the chain.
    for a in range(len(w) - 1):
        if w[a] and w[a + 1]:
            assert ends[a] <= starts[a + 1] or ends[a + 1] <= starts[a]
    # Optimality: rc equals the chain lower bound.
    pair_max = max(
        [int(w.max(initial=0))] + [int(w[i] + w[i + 1]) for i in range(len(w) - 1)]
    )
    assert rc == pair_max
    assert int(ends.max(initial=0)) <= rc


@given(
    x=st.integers(0, 2**20),
    y=st.integers(0, 2**20),
    u=st.integers(0, 2**20),
    v=st.integers(0, 2**20),
)
def test_morton_keys_injective(x, y, u, v):
    from repro.stencil.zorder import morton_key_2d

    if (x, y) != (u, v):
        assert morton_key_2d(x, y) != morton_key_2d(u, v)
