"""Stencil coloring kernels (the repo's perf subsystem).

Four layers, all differentially tested to be bit-identical to the reference
Python loops in :mod:`repro.core`:

* :mod:`repro.kernels.substrate` — per-shape LRU caches of geometry and of
  the padded-offset :class:`StencilLayout` every neighbourhood read goes
  through (``p + deltas``: no adjacency table, no bounds mask);
* :mod:`repro.kernels.native` — the compiled first-fit loop
  (``firstfit.c``, built on first use and loaded through :mod:`ctypes`),
  with a Python scan in its place when no C compiler is found;
* :mod:`repro.kernels.wavefront` — first-fit coloring and recoloring
  passes, each one call of that loop in any visit order, which
  :mod:`repro.kernels.halo` shares to resume a GLL scan from any position
  (the tiler's bands, GLL recolor deltas);
* :mod:`repro.kernels.chains` — vectorized Bipartite Decomposition chain
  assembly and the clique-guided recolor order.

Whether a call takes the kernels is one boolean: an explicit per-call
``fast=``, else ``RuntimeConfig.fast_paths`` (``REPRO_FAST_PATHS=0``
disables everything; see :func:`repro.runtime.context.resolve_fast`).
The registry wrappers in :mod:`repro.kernels.colorings` bind the kernels
to algorithm names.  Per-pass timings of the native loop are in
``docs/performance.md``.
"""

from repro.kernels.substrate import (
    StencilLayout,
    Substrate,
    cache_sizes,
    clear_caches,
    get_substrate,
    shared_geometry_2d,
    shared_geometry_3d,
)
from repro.kernels.wavefront import wavefront_greedy_color, wavefront_recolor_pass

__all__ = [
    "StencilLayout",
    "Substrate",
    "cache_sizes",
    "clear_caches",
    "get_substrate",
    "shared_geometry_2d",
    "shared_geometry_3d",
    "wavefront_greedy_color",
    "wavefront_recolor_pass",
]
