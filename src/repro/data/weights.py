"""Region-addressable weight sources for out-of-core tiled coloring.

The tiler (:mod:`repro.tiling`) never materializes a full weight grid: its
band pass streams one outer-axis band at a time through a
:class:`WeightSource` — an object that knows the grid ``shape`` and can
produce any rectangular ``region`` of it as a C-contiguous ``int64`` array.

Three backends cover the use cases:

* :class:`ArrayWeightSource` — wraps an in-memory array (tests, modest
  grids, and the :func:`repro.api.color` facade's tiled mode on ndarrays);
* :class:`MemmapWeightSource` — a ``.npy`` file opened with
  ``mmap_mode="r"``, so only the touched pages are resident;
* :class:`SyntheticWeightSource` — a deterministic counter-based generator
  (splitmix64 finalizer over the cell's flat index), so arbitrarily large
  benchmark grids cost no storage at all and any region can be produced
  independently of any other.  ``numpy``'s ``Generator`` cannot do this —
  its streams are sequential — which is why the hash-based scheme exists.

Every source is picklable (workers of the tile pool receive one through the
pool initializer) and carries a :meth:`WeightSource.fingerprint` that names
its content, used by the tile run log to refuse resuming against different
weights.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "WeightSource",
    "ArrayWeightSource",
    "MemmapWeightSource",
    "SyntheticWeightSource",
    "as_weight_source",
]

#: A half-open per-axis region: ``((lo0, hi0), (lo1, hi1)[, (lo2, hi2)])``.
Region = tuple[tuple[int, int], ...]


class WeightSource:
    """Abstract region-addressable grid of ``int64`` weights."""

    shape: tuple[int, ...]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))

    def region(self, box: Region) -> np.ndarray:
        """The weights of ``box`` as a fresh C-contiguous ``int64`` array."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """A stable hex digest naming this source's full content."""
        raise NotImplementedError

    def _check_box(self, box: Region) -> Region:
        box = tuple((int(lo), int(hi)) for lo, hi in box)
        if len(box) != len(self.shape):
            raise ValueError(f"region rank {len(box)} != grid rank {len(self.shape)}")
        for (lo, hi), dim in zip(box, self.shape):
            if not (0 <= lo <= hi <= dim):
                raise ValueError(f"region {box} out of bounds for shape {self.shape}")
        return box


class ArrayWeightSource(WeightSource):
    """An in-memory weight grid (canonicalized to ``int64``)."""

    def __init__(self, weights: np.ndarray) -> None:
        arr = np.ascontiguousarray(weights, dtype=np.int64)
        if arr.ndim not in (2, 3):
            raise ValueError(f"weights must be 2D or 3D, got {arr.ndim}D")
        if arr.size and arr.min() < 0:
            raise ValueError("weights must be non-negative")
        self._arr = arr
        self.shape = arr.shape

    def region(self, box: Region) -> np.ndarray:
        box = self._check_box(box)
        slices = tuple(slice(lo, hi) for lo, hi in box)
        return np.ascontiguousarray(self._arr[slices])

    def fingerprint(self) -> str:
        h = hashlib.blake2b(digest_size=16)
        h.update(f"array|{'x'.join(map(str, self.shape))}|".encode())
        h.update(self._arr.tobytes())
        return h.hexdigest()


class MemmapWeightSource(WeightSource):
    """A ``.npy`` weight grid read through a memory map.

    The map is opened lazily (and re-opened after unpickling), so peak
    resident memory tracks the regions actually touched, not the file size.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = str(path)
        self._mm: Optional[np.ndarray] = None
        self.shape = tuple(int(d) for d in self._open().shape)
        if len(self.shape) not in (2, 3):
            raise ValueError(f"weights must be 2D or 3D, got {len(self.shape)}D")

    def _open(self) -> np.ndarray:
        if self._mm is None:
            self._mm = np.load(self.path, mmap_mode="r")
        return self._mm

    def __getstate__(self) -> dict:
        return {"path": self.path, "shape": self.shape}

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self.shape = state["shape"]
        self._mm = None

    def region(self, box: Region) -> np.ndarray:
        box = self._check_box(box)
        slices = tuple(slice(lo, hi) for lo, hi in box)
        return np.ascontiguousarray(self._open()[slices], dtype=np.int64)

    def fingerprint(self) -> str:
        h = hashlib.blake2b(digest_size=16)
        h.update(f"npy|{self.path}|{'x'.join(map(str, self.shape))}".encode())
        return h.hexdigest()


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, vectorized over a ``uint64`` array."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


class SyntheticWeightSource(WeightSource):
    """Deterministic pseudo-random weights in ``[low, high)``, by cell hash.

    Cell ``(i, j[, k])`` hashes its global flat index with the seed through
    the splitmix64 finalizer, so every region is computed independently yet
    the full grid is a single reproducible function of ``(shape, seed)``.
    """

    def __init__(
        self,
        shape: Sequence[int],
        *,
        seed: int = 0,
        low: int = 1,
        high: int = 101,
    ) -> None:
        self.shape = tuple(int(d) for d in shape)
        if len(self.shape) not in (2, 3) or any(d < 1 for d in self.shape):
            raise ValueError(f"shape must be 2 or 3 positive dims, got {self.shape}")
        if not 0 <= low < high:
            raise ValueError(f"need 0 <= low < high, got [{low}, {high})")
        self.seed = int(seed)
        self.low = int(low)
        self.high = int(high)

    def region(self, box: Region) -> np.ndarray:
        box = self._check_box(box)
        axes = [np.arange(lo, hi, dtype=np.uint64) for lo, hi in box]
        if len(axes) == 2:
            Y = np.uint64(self.shape[1])
            idx = axes[0][:, None] * Y + axes[1][None, :]
        else:
            Y, Z = np.uint64(self.shape[1]), np.uint64(self.shape[2])
            idx = (axes[0][:, None, None] * Y + axes[1][None, :, None]) * Z + axes[2][
                None, None, :
            ]
        seed64 = np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF)
        mixed = _splitmix64(idx ^ _splitmix64(seed64))
        span = np.uint64(self.high - self.low)
        return (self.low + (mixed % span).astype(np.int64)).astype(np.int64)

    def fingerprint(self) -> str:
        spec = (
            f"synthetic|{'x'.join(map(str, self.shape))}"
            f"|seed={self.seed}|low={self.low}|high={self.high}"
        )
        return hashlib.blake2b(spec.encode(), digest_size=16).hexdigest()


def as_weight_source(obj) -> WeightSource:
    """Coerce ndarray / ``.npy`` path / source into a :class:`WeightSource`."""
    if isinstance(obj, WeightSource):
        return obj
    if isinstance(obj, (str, Path)):
        return MemmapWeightSource(obj)
    return ArrayWeightSource(np.asarray(obj))
