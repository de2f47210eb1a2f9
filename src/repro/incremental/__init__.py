"""Dirty-region recoloring: recompute only what a weight delta can change.

The paper's STKDE workload (§VII) is a sliding time window — events arrive,
a handful of voxel weights change, and historically the whole grid was
recolored from scratch.  Under a wavefront schedule that is wasteful: a
cell's start depends only on its *predecessor* neighbors (earlier wavefront
level), so a sparse weight delta can only perturb the cells scheduled after
the dirty ones:

* :mod:`repro.incremental.cone` — GLF's sparse forward propagation: process
  weight levels in increasing order, recompute only candidate cells
  (dirty, or adjacent to a cell whose interval changed), and stop at the
  fixpoint where the recomputed starts rejoin the old coloring.
* :mod:`repro.incremental.engine` — :func:`recolor_grid`, the policy layer:
  algorithm support (GLF walks the cone; GLL, whose changes cascade to the
  last column, and GZO rerun their order from the first dirty cell in one
  pass; everything else falls back to an always-correct full recolor), GLF's ``max_cone_fraction`` budget, the ``validate=``
  diff mode, and per-context metrics.

Layering: this package may depend on ``repro.kernels`` and ``repro.core``
but never on ``repro.service`` or ``repro.tiling`` — ``repro/api.py`` stays
the only multi-subsystem composer (enforced by ``tools/check_layers.py``).
"""

from repro.incremental.engine import (
    SUPPORTED_ALGORITHMS,
    RecolorOutcome,
    RecolorValidationError,
    full_recolor,
    recolor_grid,
)

__all__ = [
    "SUPPORTED_ALGORITHMS",
    "RecolorOutcome",
    "RecolorValidationError",
    "full_recolor",
    "recolor_grid",
]
