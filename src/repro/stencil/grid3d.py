"""The 27-pt 3D stencil graph (3DS-IVC substrate).

A 27-pt stencil on an ``X×Y×Z`` grid connects ``(i, j, k)`` and
``(i', j', k')`` iff all three coordinate differences are at most 1 in
absolute value (Definition 3 of the paper).  Mirrors
:class:`~repro.stencil.grid2d.StencilGrid2D` with

* vectorized CSR adjacency for the 27-pt graph and its bipartite 7-pt
  relaxation,
* the :math:`K_8` unit-cube blocks behind the max-clique lower bound,
* the layer decomposition used by the 4-approximation Bipartite
  Decomposition (each ``z`` layer is a 9-pt stencil; the layer graph is a
  chain).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.stencil.generic import CSRGraph
from repro.stencil.grid2d import StencilGrid2D, block_sums
from repro.stencil.zorder import morton_argsort_3d

#: 26 neighbor offsets of the 27-pt stencil.
OFFSETS_27PT = tuple(
    (di, dj, dk)
    for di in (-1, 0, 1)
    for dj in (-1, 0, 1)
    for dk in (-1, 0, 1)
    if (di, dj, dk) != (0, 0, 0)
)
#: 6 neighbor offsets of the 7-pt stencil.
OFFSETS_7PT = ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1))


class StencilGrid3D:
    """Geometry and adjacency of an ``X×Y×Z`` 27-pt stencil."""

    def __init__(self, X: int, Y: int, Z: int) -> None:
        if X < 1 or Y < 1 or Z < 1:
            raise ValueError("grid dimensions must be positive")
        self.X = int(X)
        self.Y = int(Y)
        self.Z = int(Z)

    # ------------------------------------------------------------------ shape
    @property
    def shape(self) -> tuple[int, int, int]:
        """The ``(X, Y, Z)`` grid shape."""
        return (self.X, self.Y, self.Z)

    @property
    def num_vertices(self) -> int:
        """Total vertex count ``X * Y * Z``."""
        return self.X * self.Y * self.Z

    @property
    def num_edges(self) -> int:
        """Undirected 27-pt edge count, in closed form (no CSR built).

        Along one axis of length ``L``, ``3L - 2`` ordered pairs of
        coordinates differ by at most 1; the product over the three axes
        counts ordered vertex pairs within the stencil, self-pairs included.
        """
        X, Y, Z = self.shape
        return ((3 * X - 2) * (3 * Y - 2) * (3 * Z - 2) - X * Y * Z) // 2

    def vertex_id(self, i, j, k):
        """Flat row-major id(s): ``(i * Y + j) * Z + k``."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        k = np.asarray(k, dtype=np.int64)
        return (i * self.Y + j) * self.Z + k

    def coords(self, v):
        """Grid coordinate(s) ``(i, j, k)`` of flat id(s) ``v``."""
        v = np.asarray(v, dtype=np.int64)
        k = v % self.Z
        rest = v // self.Z
        return rest // self.Y, rest % self.Y, k

    def in_bounds(self, i, j, k):
        """Vectorized bounds check."""
        i = np.asarray(i)
        j = np.asarray(j)
        k = np.asarray(k)
        return (i >= 0) & (i < self.X) & (j >= 0) & (j < self.Y) & (k >= 0) & (k < self.Z)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StencilGrid3D({self.X}, {self.Y}, {self.Z})"

    def __eq__(self, other) -> bool:
        return isinstance(other, StencilGrid3D) and self.shape == other.shape

    def __hash__(self) -> int:
        return hash(("StencilGrid3D", self.shape))

    # -------------------------------------------------------------- adjacency
    def _build_csr(self, offsets) -> CSRGraph:
        i, j, k = np.meshgrid(
            np.arange(self.X, dtype=np.int64),
            np.arange(self.Y, dtype=np.int64),
            np.arange(self.Z, dtype=np.int64),
            indexing="ij",
        )
        i, j, k = i.ravel(), j.ravel(), k.ravel()
        src_parts = []
        dst_parts = []
        for di, dj, dk in offsets:
            ni, nj, nk = i + di, j + dj, k + dk
            mask = self.in_bounds(ni, nj, nk)
            src_parts.append(self.vertex_id(i[mask], j[mask], k[mask]))
            dst_parts.append(self.vertex_id(ni[mask], nj[mask], nk[mask]))
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRGraph(indptr=indptr, indices=dst)

    @cached_property
    def csr(self) -> CSRGraph:
        """CSR adjacency of the full 27-pt stencil."""
        return self._build_csr(OFFSETS_27PT)

    @cached_property
    def csr_7pt(self) -> CSRGraph:
        """CSR adjacency of the bipartite 7-pt relaxation."""
        return self._build_csr(OFFSETS_7PT)

    def neighbors(self, i: int, j: int, k: int) -> list[tuple[int, int, int]]:
        """The in-bounds 27-pt neighbors of ``(i, j, k)`` as coordinates."""
        out = []
        for di, dj, dk in OFFSETS_27PT:
            ni, nj, nk = i + di, j + dj, k + dk
            if 0 <= ni < self.X and 0 <= nj < self.Y and 0 <= nk < self.Z:
                out.append((ni, nj, nk))
        return out

    # ----------------------------------------------------------------- blocks
    @cached_property
    def k8_blocks(self) -> np.ndarray:
        """All :math:`K_8` unit cubes as an ``((X-1)(Y-1)(Z-1), 8)`` array.

        The eight corners of a unit cube are pairwise adjacent in the 27-pt
        stencil, so each block's weight sum lower-bounds ``maxcolor*``.
        """
        X, Y, Z = self.shape
        if X < 2 or Y < 2 or Z < 2:
            return np.empty((0, 8), dtype=np.int64)
        i, j, k = np.meshgrid(
            np.arange(X - 1, dtype=np.int64),
            np.arange(Y - 1, dtype=np.int64),
            np.arange(Z - 1, dtype=np.int64),
            indexing="ij",
        )
        i, j, k = i.ravel(), j.ravel(), k.ravel()
        corners = [
            self.vertex_id(i + di, j + dj, k + dk)
            for di in (0, 1)
            for dj in (0, 1)
            for dk in (0, 1)
        ]
        return np.column_stack(corners)

    def block_weight_sums(self, weights: np.ndarray) -> np.ndarray:
        """Sum of ``weights`` over each :math:`K_8` block, in block-id order."""
        return block_sums(self.weights_as_grid(weights))

    # ----------------------------------------------------------------- layers
    def layer_ids(self, k: int) -> np.ndarray:
        """Flat ids of the ``z = k`` layer, ordered row-major over ``(i, j)``.

        Each layer induces a 9-pt stencil on ``(X, Y)``; the graph of layers
        is a chain, which is what makes the 3D Bipartite Decomposition a
        4-approximation.
        """
        if not 0 <= k < self.Z:
            raise IndexError(f"layer {k} out of range for Z={self.Z}")
        i, j = np.meshgrid(
            np.arange(self.X, dtype=np.int64), np.arange(self.Y, dtype=np.int64), indexing="ij"
        )
        return self.vertex_id(i.ravel(), j.ravel(), np.full(i.size, k, dtype=np.int64))

    def layers(self) -> list[np.ndarray]:
        """All layers, ``k = 0 .. Z-1``."""
        return [self.layer_ids(k) for k in range(self.Z)]

    def layer_grid(self) -> StencilGrid2D:
        """The 2D stencil induced on every ``z`` layer."""
        return StencilGrid2D(self.X, self.Y)

    # -------------------------------------------------------------- orderings
    def line_by_line_order(self) -> np.ndarray:
        """Vertex permutation scanning lines then planes (paper's GLL).

        Vertices are visited by increasing ``i`` within a line, lines by
        increasing ``j`` within a plane, planes by increasing ``k``.
        """
        ids = np.arange(self.X * self.Y * self.Z, dtype=np.int64)
        return ids.reshape(self.X, self.Y, self.Z).transpose(2, 1, 0).ravel()

    @cached_property
    def zorder_order(self) -> np.ndarray:
        """Vertex permutation in Morton (Z-order) traversal (paper's GZO).

        Computed once per geometry and shared by every instance of the
        shape, so the array is read-only.
        """
        order = morton_argsort_3d(self.shape)
        order.flags.writeable = False
        return order

    def weights_as_grid(self, weights: np.ndarray) -> np.ndarray:
        """Reshape a flat weight vector to the ``(X, Y, Z)`` grid."""
        return np.asarray(weights).reshape(self.shape)
