"""Vectorized stencil coloring kernels (the repo's perf subsystem).

Three layers, all differentially tested to be bit-identical to the reference
Python loops in :mod:`repro.core`:

* :mod:`repro.kernels.substrate` — per-shape LRU caches of geometry, the
  padded-offset :class:`StencilLayout` every neighbourhood read goes
  through (``p + deltas``: no adjacency table, no bounds mask), and
  wavefront schedules;
* :mod:`repro.kernels.wavefront` — wavefront-batched first-fit coloring and
  recoloring (the ``O(E log E)`` primitive, without the per-vertex loop),
  in one batch loop that :mod:`repro.kernels.halo` shares to resume a GLL
  scan from an outer index (the tiler's bands, GLL recolor deltas);
* :mod:`repro.kernels.chains` — vectorized Bipartite Decomposition chain
  assembly and the clique-guided recolor order.

Whether a call takes the kernels is decided by
:mod:`repro.runtime.fastpath` (``REPRO_FAST_PATHS=0`` disables
everything), and the registry wrappers in
:mod:`repro.kernels.colorings` bind the kernels to algorithm names.  The
kernel-vs-reference timings are ``BENCH_crossover.json``
(``tools/kernel_crossover.py``).
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
