"""Vectorized stencil coloring kernels (the repo's perf subsystem).

Three layers, all differentially tested to be bit-identical to the reference
Python loops in :mod:`repro.core`:

* :mod:`repro.kernels.substrate` — per-shape LRU caches of geometry, the
  padded-offset :class:`StencilLayout` every neighbourhood read goes
  through (``p + deltas``: no adjacency table, no bounds mask), and
  wavefront schedules;
* :mod:`repro.kernels.wavefront` — wavefront-batched first-fit coloring and
  recoloring (the ``O(E log E)`` primitive, without the per-vertex loop),
  in one batch loop that :mod:`repro.kernels.halo`'s region kernel shares;
* :mod:`repro.kernels.chains` — vectorized Bipartite Decomposition chain
  assembly and the clique-guided recolor order.

The process-wide switch lives in :mod:`repro.kernels.config`
(``REPRO_FAST_PATHS=0`` disables everything); the registry wrappers in
:mod:`repro.kernels.colorings` bind the kernels to algorithm names; and
:mod:`repro.kernels.bench` measures kernel-vs-reference speedups
(``stencil-ivc bench-kernels``).
"""

from repro.kernels.config import (
    MIN_AUTO_SIZE,
    fast_paths,
    fast_paths_enabled,
    resolve_fast,
    resolve_fast_for,
    set_fast_paths,
)
from repro.kernels.substrate import (
    StencilLayout,
    Substrate,
    analytic_levels,
    cache_sizes,
    clear_caches,
    get_substrate,
    shared_geometry_2d,
    shared_geometry_3d,
)
from repro.kernels.wavefront import wavefront_greedy_color, wavefront_recolor_pass

__all__ = [
    "MIN_AUTO_SIZE",
    "StencilLayout",
    "Substrate",
    "analytic_levels",
    "cache_sizes",
    "clear_caches",
    "fast_paths",
    "fast_paths_enabled",
    "get_substrate",
    "resolve_fast",
    "resolve_fast_for",
    "set_fast_paths",
    "shared_geometry_2d",
    "shared_geometry_3d",
    "wavefront_greedy_color",
    "wavefront_recolor_pass",
]
