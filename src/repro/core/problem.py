"""The Interval Vertex Coloring problem container.

An :class:`IVCInstance` binds together

* an undirected conflict graph in CSR form (built lazily, on first read, for
  stencil instances),
* non-negative integer vertex weights, and
* optionally a 2D or 3D stencil geometry
  (:class:`~repro.stencil.grid.StencilGrid`) that structure-aware algorithms
  (Bipartite Decomposition, clique-first orderings, GZO) exploit.

Instances built from weight grids are 2DS-IVC / 3DS-IVC instances in the
paper's terminology; instances built from a bare graph are general IVC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.stencil.generic import CSRGraph, from_edges
from repro.stencil.grid import StencilGrid


def _check_finite(arr) -> None:
    """Reject NaN/inf before an int cast silently mangles them."""
    asarray = np.asarray(arr)
    if np.issubdtype(asarray.dtype, np.floating) and not np.isfinite(asarray).all():
        raise ValueError("weights must be finite")


def _as_weights(weights, n: int) -> np.ndarray:
    _check_finite(weights)
    arr = np.ascontiguousarray(weights, dtype=np.int64).ravel()
    if len(arr) != n:
        raise ValueError(f"expected {n} weights, got {len(arr)}")
    if arr.size and arr.min() < 0:
        raise ValueError("weights must be non-negative")
    return arr


class _Graph:
    """The :attr:`IVCInstance.graph` field: given, or the stencil's on first read.

    A general instance stores the graph it was built with.  A stencil
    instance stores none: reading ``graph`` returns its geometry's ``csr``,
    a ``cached_property`` built once per shape by the first code path that
    walks adjacency (GSL, the reference loops, bounds, exact solvers).  The
    kernels read the padded :class:`~repro.kernels.substrate.StencilLayout`
    instead, so a kernel run never builds it.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return None  # the dataclass default: ``graph=None``
        given = instance.__dict__["_given_graph"]
        return instance.geometry.csr if given is None else given

    def __set__(self, instance, value) -> None:
        instance.__dict__["_given_graph"] = value


@dataclass(frozen=True, eq=False, kw_only=True)
class IVCInstance:
    """An interval vertex coloring instance.

    Equality is identity: two instances compare equal only if they are the
    same object (comparing weight arrays, or building two CSRs to compare
    them, is never what a caller wants).

    Attributes
    ----------
    graph:
        Conflict graph in CSR form.  Optional for stencil instances, whose
        graph is the geometry's, resolved on first read.
    weights:
        ``int64`` array of per-vertex interval lengths (``>= 0``).
    geometry:
        The stencil grid this instance lives on, or ``None`` for general
        graphs.
    name:
        Free-form label used in experiment reports.
    """

    graph: Optional[CSRGraph] = _Graph()
    weights: np.ndarray
    geometry: Optional[StencilGrid] = None
    name: str = ""
    metadata: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        given = self.__dict__["_given_graph"]
        if given is None and self.geometry is None:
            raise ValueError("an instance needs a conflict graph or a stencil geometry")
        n = given.num_vertices if given is not None else self.geometry.num_vertices
        object.__setattr__(self, "weights", _as_weights(self.weights, n))
        if self.geometry is not None and self.geometry.num_vertices != n:
            raise ValueError("geometry vertex count does not match graph")

    # -------------------------------------------------------------- accessors
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.weights)

    @property
    def num_edges(self) -> int:
        """Number of undirected conflict edges (closed form on a stencil)."""
        if self.geometry is not None:
            return self.geometry.num_edges
        return self.graph.num_edges

    @property
    def total_weight(self) -> int:
        """Sum of all vertex weights — a trivial upper bound on ``maxcolor*``."""
        return int(self.weights.sum())

    @property
    def is_2d(self) -> bool:
        """Whether the instance is a 2DS-IVC (9-pt stencil) instance."""
        return self.geometry is not None and self.geometry.ndim == 2

    @property
    def is_3d(self) -> bool:
        """Whether the instance is a 3DS-IVC (27-pt stencil) instance."""
        return self.geometry is not None and self.geometry.ndim == 3

    def weight_grid(self) -> np.ndarray:
        """Weights reshaped to the stencil grid (stencil instances only)."""
        if self.geometry is None:
            raise ValueError("instance has no stencil geometry")
        return self.geometry.weights_as_grid(self.weights)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        geo = f", geometry={self.geometry!r}" if self.geometry is not None else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"IVCInstance(n={self.num_vertices}, m={self.num_edges}{geo}{label})"

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_grid(cls, weight_grid, name: str = "", metadata: dict | None = None) -> "IVCInstance":
        """Build a 2DS-IVC or 3DS-IVC instance from a 2D or 3D weight array.

        Goes through :meth:`from_grid_2d` or :meth:`from_grid_3d`, looked
        up on the class at call time.
        """
        ndim = np.ndim(weight_grid)
        if ndim not in (2, 3):
            raise ValueError(
                f"expected a 2D or 3D weight grid, got shape {np.shape(weight_grid)}"
            )
        build = cls.from_grid_2d if ndim == 2 else cls.from_grid_3d
        return build(weight_grid, name=name, metadata=metadata)

    @classmethod
    def from_grid_2d(cls, weight_grid, name: str = "", metadata: dict | None = None) -> "IVCInstance":
        """Build a 2DS-IVC instance from an ``(X, Y)`` weight array."""
        from repro.kernels.substrate import shared_geometry_2d

        return cls._on_grid(weight_grid, 2, shared_geometry_2d, name, metadata)

    @classmethod
    def from_grid_3d(cls, weight_grid, name: str = "", metadata: dict | None = None) -> "IVCInstance":
        """Build a 3DS-IVC instance from an ``(X, Y, Z)`` weight array."""
        from repro.kernels.substrate import shared_geometry_3d

        return cls._on_grid(weight_grid, 3, shared_geometry_3d, name, metadata)

    @classmethod
    def _on_grid(cls, weight_grid, ndim: int, shared, name: str, metadata) -> "IVCInstance":
        """An instance over the context-shared geometry ``shared(*shape)``
        of an ``ndim``-D weight array."""
        _check_finite(weight_grid)
        grid_arr = np.ascontiguousarray(weight_grid, dtype=np.int64)
        if grid_arr.ndim != ndim:
            raise ValueError(f"expected a {ndim}D weight grid, got shape {grid_arr.shape}")
        return cls(
            weights=grid_arr.ravel(),
            geometry=shared(*grid_arr.shape),
            name=name,
            metadata=metadata or {},
        )

    @classmethod
    def from_graph(cls, graph: CSRGraph, weights, name: str = "") -> "IVCInstance":
        """Build a general IVC instance from a CSR graph and weights."""
        return cls(graph=graph, weights=weights, name=name)

    @classmethod
    def from_edges(cls, num_vertices: int, edges, weights, name: str = "") -> "IVCInstance":
        """Build a general IVC instance from an edge list and weights."""
        return cls(graph=from_edges(num_vertices, edges), weights=weights, name=name)
