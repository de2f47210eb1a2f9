"""The 9-pt 2D and 27-pt 3D stencil graphs (2DS-IVC and 3DS-IVC substrates).

Both stencils are one rule (Definitions 2 and 3 of the paper): on an
``X×Y`` or ``X×Y×Z`` grid, two cells are adjacent iff every coordinate
differs by at most 1 (the Moore neighbourhood).  Everything here follows
from that rule with no case per dimension:

* flat row-major (C order) vertex ids, ``id = i * Y + j`` in 2D and
  ``(i * Y + j) * Z + k`` in 3D,
* vectorized CSR adjacency for the full stencil and for its bipartite
  relaxation to the ``2D`` axis neighbours (5-pt in 2D, 7-pt in 3D),
* the ``2**D`` corners of every unit block: a :math:`K_4` in 2D, a
  :math:`K_8` in 3D, the cliques behind the max-clique lower bound and the
  clique-first heuristics,
* the slices along the last axis used by Bipartite Decomposition (2D rows
  are chains; 3D layers are 9-pt grids, and the slices form a chain),
* the line-by-line (GLL) and Morton (GZO) visit orders.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from itertools import product

import numpy as np

from repro.stencil.generic import CSRGraph
from repro.stencil.zorder import morton_argsort


@cache
def moore_offsets(ndim: int) -> tuple[tuple[int, ...], ...]:
    """The ``3**ndim - 1`` stencil offsets (8 in 2D, 26 in 3D), in
    lexicographic order."""
    return tuple(o for o in product((-1, 0, 1), repeat=ndim) if any(o))


@cache
def axis_offsets(ndim: int) -> tuple[tuple[int, ...], ...]:
    """The ``2 * ndim`` axis offsets of the 5-pt / 7-pt relaxation: per
    axis, ``-1`` then ``+1``."""
    return tuple(
        tuple(step if a == axis else 0 for a in range(ndim))
        for axis in range(ndim)
        for step in (-1, 1)
    )


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


class StencilGrid:
    """Geometry and adjacency of a 9-pt (``X×Y``) or 27-pt (``X×Y×Z``)
    stencil.

    Parameters
    ----------
    *dims:
        The 2 or 3 grid dimensions.  The paper assumes every axis above 1
        (a 1-wide grid is a chain, handled by the exact special cases), but
        any positive dimensions are accepted.
    """

    def __init__(self, *dims: int) -> None:
        if len(dims) not in (2, 3):
            raise ValueError(f"stencil grids are 2D or 3D, got dimensions {dims}")
        if min(dims) < 1:
            raise ValueError("grid dimensions must be positive")
        self.shape = tuple(int(d) for d in dims)

    # ------------------------------------------------------------------ shape
    @property
    def ndim(self) -> int:
        """2 for the 9-pt stencil, 3 for the 27-pt stencil."""
        return len(self.shape)

    @property
    def num_vertices(self) -> int:
        """Total vertex count, the product of the dimensions."""
        return math.prod(self.shape)

    @property
    def num_edges(self) -> int:
        """Undirected stencil edge count, in closed form (no CSR built).

        Along one axis of length ``L``, ``3L - 2`` ordered pairs of
        coordinates differ by at most 1; the product over the axes counts
        ordered vertex pairs within the stencil, self-pairs included.
        """
        pairs = math.prod(3 * d - 2 for d in self.shape)
        return (pairs - self.num_vertices) // 2

    def vertex_id(self, *coords):
        """Flat row-major id(s) of grid coordinate(s)."""
        ids = np.int64(0)
        for c, d in zip(coords, self.shape):
            ids = ids * d + np.asarray(c, dtype=np.int64)
        return ids

    def coords(self, v) -> tuple[np.ndarray, ...]:
        """Grid coordinate(s) of flat id(s) ``v``, one array per axis."""
        rest = np.asarray(v, dtype=np.int64)
        out = []
        for d in self.shape[:0:-1]:
            out.append(rest % d)
            rest = rest // d
        return (rest, *out[::-1])

    def in_bounds(self, *coords):
        """Vectorized bounds check."""
        inside = np.asarray(True)
        for c, d in zip(coords, self.shape):
            c = np.asarray(c)
            inside = inside & (c >= 0) & (c < d)
        return inside

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StencilGrid{self.shape}"

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.shape == self.shape

    def __hash__(self) -> int:
        return hash(("StencilGrid", self.shape))

    # -------------------------------------------------------------- adjacency
    def _build_csr(self, offsets) -> CSRGraph:
        cells = np.indices(self.shape, dtype=np.int64).reshape(self.ndim, -1)
        src_parts = []
        dst_parts = []
        for offset in offsets:
            near = cells + np.asarray(offset, dtype=np.int64)[:, None]
            mask = self.in_bounds(*near)
            src_parts.append(self.vertex_id(*cells[:, mask]))
            dst_parts.append(self.vertex_id(*near[:, mask]))
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
        """CSR adjacency of the full 9-pt / 27-pt stencil."""
        return self._build_csr(moore_offsets(self.ndim))

    @cached_property
    def csr_axis(self) -> CSRGraph:
        """CSR adjacency of the bipartite 5-pt / 7-pt relaxation."""
        return self._build_csr(axis_offsets(self.ndim))

    def neighbors(self, *coord: int) -> list[tuple[int, ...]]:
        """The in-bounds stencil neighbours of one cell, as coordinates."""
        out = []
        for offset in moore_offsets(self.ndim):
            near = tuple(c + o for c, o in zip(coord, offset))
            if all(0 <= c < d for c, d in zip(near, self.shape)):
                out.append(near)
        return out

    # ----------------------------------------------------------------- blocks
    @cached_property
    def blocks(self) -> np.ndarray:
        """Every unit block as a ``(blocks, 2**D)`` array of ids.

        Block rows are in C order of the block's lowest corner (the ids of
        :func:`block_sums`); row ``b`` lists the block's corners in
        ``np.ndindex(2, ...)`` order, so its ids increase strictly.  The
        corners are pairwise adjacent (a :math:`K_4` / :math:`K_8`), so each
        block's weight sum lower-bounds ``maxcolor*`` (Section III.A).  A
        grid with an axis below 2 has none.
        """
        ids = np.arange(self.num_vertices, dtype=np.int64).reshape(self.shape)
        inner = tuple(d - 1 for d in self.shape)
        return np.column_stack([w.ravel() for w in corner_windows(ids, inner)])

    def block_weight_sums(self, weights: np.ndarray) -> np.ndarray:
        """Sum of ``weights`` over each unit block, in block-id order."""
        return block_sums(self.weights_as_grid(weights))

    # ----------------------------------------------------------------- layers
    def layer_ids(self, k: int) -> np.ndarray:
        """Flat ids of the slice at last coordinate ``k``, in row-major
        order over the other axes.

        In 2D the slice is the row ``(0, k), ..., (X-1, k)``, a chain; in
        3D it is the ``z = k`` layer, a 9-pt stencil on ``(X, Y)``.  Slices
        ``k`` and ``k + 1`` are adjacent and slices two apart are not, so
        the slice graph is a chain: the decomposition behind Bipartite
        Decomposition's 2- and 4-approximations.
        """
        if not 0 <= k < self.shape[-1]:
            raise IndexError(f"layer {k} out of range for last axis {self.shape[-1]}")
        ids = np.arange(self.num_vertices, dtype=np.int64).reshape(self.shape)
        return ids[..., k].ravel()

    def layers(self) -> list[np.ndarray]:
        """All slices along the last axis, ``k = 0, 1, ...``."""
        return [self.layer_ids(k) for k in range(self.shape[-1])]

    def layer_grid(self) -> "StencilGrid":
        """The stencil induced on every slice (3D grids: the ``(X, Y)``
        9-pt grid of a layer)."""
        return StencilGrid(*self.shape[:-1])

    # -------------------------------------------------------------- orderings
    def line_by_line_order(self) -> np.ndarray:
        """Vertex permutation scanning lines, then planes (paper's GLL).

        Vertices are visited by increasing ``i`` within a line, lines by
        increasing ``j``, and in 3D planes by increasing ``k``: C order of
        the reversed axes.  (Any lexicographic scan realizes GLL; this one
        follows the slices of :meth:`layer_ids`.)
        """
        return np.arange(self.num_vertices, dtype=np.int64).reshape(self.shape).T.ravel()

    @cached_property
    def zorder_order(self) -> np.ndarray:
        """Vertex permutation in Morton (Z-order) traversal (paper's GZO).

        Computed once per geometry and shared by every instance of the
        shape, so the array is read-only.
        """
        order = morton_argsort(self.shape)
        order.flags.writeable = False
        return order

    def weights_as_grid(self, weights: np.ndarray) -> np.ndarray:
        """Reshape a flat weight vector to the grid."""
        return np.asarray(weights).reshape(self.shape)
