"""Dirty-region recoloring: recompute only what a weight delta can change.

The paper's STKDE workload (§VII) is a sliding time window — events arrive,
a handful of voxel weights change, and historically the whole grid was
recolored from scratch.  Under a wavefront schedule that is wasteful: a
cell's start depends only on its *predecessor* neighbors (earlier wavefront
level), so a sparse weight delta can only perturb the cells scheduled after
the dirty ones:

* :mod:`repro.incremental.cone` — the walk: first-fit again only the cells
  a delta can reach, in the order's key (a static rank for GLL and GZO,
  ``-weight`` for GLF), with one call of the compiled
  :func:`repro.kernels.native.cone_walk`.
* :mod:`repro.incremental.engine` — :func:`recolor_grid`, the policy layer:
  GLL, GZO and GLF deltas go through the walk; other algorithms, walks
  past a fixed share of the grid and every delta without a C compiler
  fall back to an always-correct full recolor; the ``validate=`` diff
  mode and per-context metrics.

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
