"""Coloring results: start vectors, ``maxcolor``, and validation.

A coloring is just the ``start`` function of Definition 1, stored as an
``int64`` vector parallel to the instance's weights.  Validation checks every
conflict edge for interval disjointness — vectorized over the whole edge set
(on a stencil, over the padded layout, with no edge list) so tests and
experiments can afford to validate everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.interval import edge_overlaps
from repro.core.problem import IVCInstance


@dataclass(frozen=True)
class Coloring:
    """An interval coloring of an :class:`~repro.core.problem.IVCInstance`.

    Attributes
    ----------
    instance:
        The instance this coloring belongs to.
    starts:
        ``int64`` start color per vertex; vertex ``v`` occupies
        ``[starts[v], starts[v] + w(v))``.
    algorithm:
        Label of the producing algorithm (for reports).
    elapsed:
        Wall-clock seconds the producing algorithm took, if measured.
    """

    instance: IVCInstance
    starts: np.ndarray
    algorithm: str = ""
    elapsed: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        starts = np.ascontiguousarray(self.starts, dtype=np.int64)
        if len(starts) != self.instance.num_vertices:
            raise ValueError(
                f"expected {self.instance.num_vertices} starts, got {len(starts)}"
            )
        if starts.size and starts.min() < 0:
            raise ValueError("start colors must be non-negative")
        object.__setattr__(self, "starts", starts)

    # -------------------------------------------------------------- quantities
    @property
    def ends(self) -> np.ndarray:
        """Per-vertex interval ends ``start + w``."""
        return self.starts + self.instance.weights

    @property
    def maxcolor(self) -> int:
        """Number of colors used: ``max_v start(v) + w(v)`` (0 if no vertices)."""
        if self.instance.num_vertices == 0:
            return 0
        return int(self.ends.max())

    # -------------------------------------------------------------- validation
    def violations(self) -> np.ndarray:
        """All conflicting edges as an ``(k, 2)`` array (empty iff valid).

        Rows are ``u < v`` in lexicographic order.  A stencil instance is
        checked on its shape's :class:`~repro.kernels.substrate.StencilLayout`
        (every edge, no CSR built); a general instance walks its edge list.
        """
        geometry = self.instance.geometry
        if geometry is not None:
            from repro.kernels.substrate import get_substrate

            layout = get_substrate(geometry).layout
            return layout.conflicts(self.starts, self.instance.weights)
        edges = self.instance.graph.edges()
        if len(edges) == 0:
            return np.empty((0, 2), dtype=np.int64)
        mask = edge_overlaps(self.starts, self.instance.weights, edges)
        return edges[mask]

    def is_valid(self) -> bool:
        """Whether no two neighboring intervals intersect."""
        return len(self.violations()) == 0

    def check(self) -> "Coloring":
        """Raise :class:`ValueError` listing the first violations, else return self."""
        bad = self.violations()
        if len(bad):
            sample = ", ".join(f"({u}, {v})" for u, v in bad[:5])
            raise ValueError(
                f"invalid coloring ({len(bad)} conflicting edges; first: {sample})"
            )
        return self

    # ---------------------------------------------------------------- utility
    def with_algorithm(self, algorithm: str, elapsed: float = 0.0) -> "Coloring":
        """Return a copy relabeled with the producing algorithm."""
        return Coloring(
            instance=self.instance,
            starts=self.starts,
            algorithm=algorithm,
            elapsed=elapsed,
        )

    def interval_of(self, v: int) -> tuple[int, int]:
        """The ``(start, end)`` pair of vertex ``v``."""
        return int(self.starts[v]), int(self.starts[v] + self.instance.weights[v])

    def as_grid(self) -> np.ndarray:
        """Start colors reshaped to the stencil grid (stencil instances only)."""
        if self.instance.geometry is None:
            raise ValueError("instance has no stencil geometry")
        return self.instance.geometry.weights_as_grid(self.starts)
