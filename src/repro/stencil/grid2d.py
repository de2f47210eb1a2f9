"""The 9-pt 2D stencil graph (2DS-IVC substrate).

A 9-pt stencil on an ``X×Y`` grid connects ``(i, j)`` and ``(i', j')`` iff
``|i - i'| <= 1`` and ``|j - j'| <= 1`` (Moore neighborhood, Definition 2 of
the paper).  This module provides:

* flat row-major vertex indexing (``id = i * Y + j``),
* vectorized CSR adjacency for the 9-pt graph and its bipartite 5-pt
  (von Neumann) relaxation,
* the :math:`K_4` blocks of four mutually adjacent vertices
  ``(i, j), (i+1, j), (i, j+1), (i+1, j+1)`` that drive the max-clique lower
  bound and the clique-first heuristics,
* the row decomposition used by Bipartite Decomposition.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.stencil.generic import CSRGraph
from repro.stencil.zorder import morton_argsort_2d

#: Moore neighborhood offsets (8 neighbors).
OFFSETS_9PT = tuple(
    (di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)
)
#: Von Neumann neighborhood offsets (4 neighbors).
OFFSETS_5PT = ((-1, 0), (1, 0), (0, -1), (0, 1))


def corner_windows(grid: np.ndarray, shape: tuple[int, ...]):
    """The ``2**D`` views of ``grid`` of ``shape`` whose origins are the
    corners of the unit cube, ``{0, 1}**D``: window ``c`` holds
    ``grid[p + c]`` at ``p``."""
    for corner in np.ndindex(*(2,) * grid.ndim):
        yield grid[tuple(slice(c, c + d) for c, d in zip(corner, shape))]


def block_sums(grid: np.ndarray) -> np.ndarray:
    """Flat sums of ``grid`` over every unit block (``2**D`` corners), in
    C order of the block's lowest corner: the :math:`K_4` / :math:`K_8`
    block ids.  One shifted slice add per corner, no block table.

    Accumulates in the dtype ``np.sum`` would, so small integer weights
    cannot overflow.
    """
    grid = grid.astype(np.sum(grid[:0]).dtype, copy=False)
    inner = tuple(max(d - 1, 0) for d in grid.shape)
    sums = np.zeros(inner, dtype=grid.dtype)
    for window in corner_windows(grid, inner):
        sums += window
    return sums.ravel()


class StencilGrid2D:
    """Geometry and adjacency of an ``X×Y`` 9-pt stencil.

    Parameters
    ----------
    X, Y:
        Grid dimensions; the paper assumes ``X > 1`` and ``Y > 1`` (a
        1-wide grid is a chain, handled by the exact special cases), but this
        class accepts any positive dimensions.
    """

    def __init__(self, X: int, Y: int) -> None:
        if X < 1 or Y < 1:
            raise ValueError("grid dimensions must be positive")
        self.X = int(X)
        self.Y = int(Y)

    # ------------------------------------------------------------------ shape
    @property
    def shape(self) -> tuple[int, int]:
        """The ``(X, Y)`` grid shape."""
        return (self.X, self.Y)

    @property
    def num_vertices(self) -> int:
        """Total vertex count ``X * Y``."""
        return self.X * self.Y

    @property
    def num_edges(self) -> int:
        """Undirected 9-pt edge count, in closed form (no CSR built).

        ``(X-1)Y`` vertical plus ``X(Y-1)`` horizontal plus ``2(X-1)(Y-1)``
        diagonal edges.
        """
        X, Y = self.X, self.Y
        return (X - 1) * Y + X * (Y - 1) + 2 * (X - 1) * (Y - 1)

    def vertex_id(self, i, j):
        """Flat row-major id(s) of grid coordinate(s) ``(i, j)``."""
        return np.asarray(i, dtype=np.int64) * self.Y + np.asarray(j, dtype=np.int64)

    def coords(self, v):
        """Grid coordinate(s) ``(i, j)`` of flat id(s) ``v``."""
        v = np.asarray(v, dtype=np.int64)
        return v // self.Y, v % self.Y

    def in_bounds(self, i, j):
        """Vectorized bounds check."""
        i = np.asarray(i)
        j = np.asarray(j)
        return (i >= 0) & (i < self.X) & (j >= 0) & (j < self.Y)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StencilGrid2D({self.X}, {self.Y})"

    def __eq__(self, other) -> bool:
        return isinstance(other, StencilGrid2D) and self.shape == other.shape

    def __hash__(self) -> int:
        return hash(("StencilGrid2D", self.shape))

    # -------------------------------------------------------------- adjacency
    def _build_csr(self, offsets) -> CSRGraph:
        X, Y = self.X, self.Y
        i, j = np.meshgrid(np.arange(X, dtype=np.int64), np.arange(Y, dtype=np.int64), indexing="ij")
        i = i.ravel()
        j = j.ravel()
        src_parts = []
        dst_parts = []
        for di, dj in offsets:
            ni, nj = i + di, j + dj
            mask = self.in_bounds(ni, nj)
            src_parts.append(self.vertex_id(i[mask], j[mask]))
            dst_parts.append(self.vertex_id(ni[mask], nj[mask]))
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(X * Y + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRGraph(indptr=indptr, indices=dst)

    @cached_property
    def csr(self) -> CSRGraph:
        """CSR adjacency of the full 9-pt stencil."""
        return self._build_csr(OFFSETS_9PT)

    @cached_property
    def csr_5pt(self) -> CSRGraph:
        """CSR adjacency of the bipartite 5-pt relaxation."""
        return self._build_csr(OFFSETS_5PT)

    def neighbors(self, i: int, j: int) -> list[tuple[int, int]]:
        """The in-bounds Moore neighbors of ``(i, j)`` as coordinate pairs."""
        out = []
        for di, dj in OFFSETS_9PT:
            ni, nj = i + di, j + dj
            if 0 <= ni < self.X and 0 <= nj < self.Y:
                out.append((ni, nj))
        return out

    # ----------------------------------------------------------------- blocks
    @cached_property
    def k4_blocks(self) -> np.ndarray:
        """All :math:`K_4` blocks as an ``((X-1)(Y-1), 4)`` array of ids.

        Block ``(i, j)`` (top-left corner) contains
        ``(i, j), (i, j+1), (i+1, j), (i+1, j+1)``; these four vertices are
        pairwise adjacent in the 9-pt stencil, so the sum of their weights is
        a lower bound on ``maxcolor*`` (Section III.A).
        """
        X, Y = self.X, self.Y
        if X < 2 or Y < 2:
            return np.empty((0, 4), dtype=np.int64)
        i, j = np.meshgrid(
            np.arange(X - 1, dtype=np.int64), np.arange(Y - 1, dtype=np.int64), indexing="ij"
        )
        i = i.ravel()
        j = j.ravel()
        return np.column_stack(
            [
                self.vertex_id(i, j),
                self.vertex_id(i, j + 1),
                self.vertex_id(i + 1, j),
                self.vertex_id(i + 1, j + 1),
            ]
        )

    def block_weight_sums(self, weights: np.ndarray) -> np.ndarray:
        """Sum of ``weights`` over each :math:`K_4` block, in block-id order."""
        return block_sums(self.weights_as_grid(weights))

    # ------------------------------------------------------------------- rows
    def row_ids(self, j: int) -> np.ndarray:
        """Flat ids of row ``j`` — the chain ``(0, j), (1, j), ..., (X-1, j)``.

        Rows are the chains contracted by Bipartite Decomposition: within a
        row, consecutive vertices are adjacent; rows ``j`` and ``j + 1`` are
        adjacent, rows two apart are not.
        """
        if not 0 <= j < self.Y:
            raise IndexError(f"row {j} out of range for Y={self.Y}")
        return np.arange(self.X, dtype=np.int64) * self.Y + j

    def rows(self) -> list[np.ndarray]:
        """All rows, ``j = 0 .. Y-1``."""
        return [self.row_ids(j) for j in range(self.Y)]

    # -------------------------------------------------------------- orderings
    def line_by_line_order(self) -> np.ndarray:
        """Vertex permutation scanning rows one after the other.

        Within a row vertices are visited by increasing ``i``; rows by
        increasing ``j``.  (Any lexicographic scan realizes the paper's GLL;
        this one matches the row decomposition above.)
        """
        return np.arange(self.X * self.Y, dtype=np.int64).reshape(self.X, self.Y).T.ravel()

    @cached_property
    def zorder_order(self) -> np.ndarray:
        """Vertex permutation in Morton (Z-order) traversal (paper's GZO).

        Computed once per geometry and shared by every instance of the
        shape, so the array is read-only.
        """
        order = morton_argsort_2d(self.shape)
        order.flags.writeable = False
        return order

    def weights_as_grid(self, weights: np.ndarray) -> np.ndarray:
        """Reshape a flat weight vector to the ``(X, Y)`` grid."""
        return np.asarray(weights).reshape(self.X, self.Y)
