"""Ablation — what the BDP recoloring *order* buys.

DESIGN.md §6: BDP recolors in the paper's clique-guided order (blocks by
non-increasing weight, vertices by increasing start).  Compared against no
post-pass (plain BD), an id-order sweep, and a random-order sweep, on the
full 2D suite.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.algorithms.bipartite_decomposition import bd_with_bound
from repro.core.greedy_engine import greedy_recolor_pass
from repro.core.orderings import clique_order

from benchmarks.conftest import emit


def test_ablation_bdp_order(benchmark, suite2d):
    def run():
        totals = {"BD (no post)": 0, "BDP (clique order)": 0, "id order": 0, "random order": 0}
        rng = np.random.default_rng(0)
        for inst in suite2d:
            bd, _rc = bd_with_bound(inst)
            totals["BD (no post)"] += bd.maxcolor
            order = clique_order(inst, bd.starts)
            totals["BDP (clique order)"] += int(
                (greedy_recolor_pass(inst, bd.starts, order) + inst.weights).max()
            )
            totals["id order"] += int(
                (greedy_recolor_pass(inst, bd.starts) + inst.weights).max()
            )
            random_order = rng.permutation(inst.num_vertices)
            totals["random order"] += int(
                (greedy_recolor_pass(inst, bd.starts, random_order) + inst.weights).max()
            )
        return totals

    totals = benchmark.pedantic(run, rounds=1, iterations=1)
    base = totals["BD (no post)"]
    rows = [
        (name, total, (1 - total / base) * 100) for name, total in totals.items()
    ]
    emit(
        "ablation bdp order",
        format_table(("recolor order", "total colors", "gain vs BD %"), rows),
    )
    # Any recolor pass only improves; the clique order is the paper's choice.
    assert totals["BDP (clique order)"] <= base
    assert totals["id order"] <= base
    assert totals["random order"] <= base
