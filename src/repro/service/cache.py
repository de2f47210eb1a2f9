"""Content-addressed result cache with LRU eviction and a spill directory.

Entries are keyed by :func:`~repro.service.protocol.content_key`, so a hit is
*definitionally* the correct coloring — the key commits to the stencil kind,
shape, weights, and algorithm, and every registry algorithm is deterministic.

The in-memory tier is a plain LRU of :class:`CacheEntry` values.  Below it
sits the one disk tier, the spill directory (``spill_dir``), shared by one
worker or by the N workers behind ``stencil-ivc serve --workers N``: every
entry is its own ``<key>.json`` file, written *write-through* on first
insert with :func:`repro.resilience.durable.publish` (temp file + atomic
rename), so a reader never sees a half-written entry.  The router's
content-key hashing makes each worker the single writer for its keys, and
because any worker may *read* any key, a cold or freshly restarted worker
serves its siblings' results.  A cache built over an existing directory
indexes it at once, so a restart warm-starts with no extra step.

Corruption tolerance: a torn or corrupt spill file (disk trouble, an
injected ``cache.spill.write`` fault) is never fatal and costs no other key
its entry — the read degrades to a cache miss, is *counted*
(``spill_read_errors`` in :meth:`ResultCache.stats`, so silent corruption
shows up in ``/metrics``), and the file is unlinked so the entry is
recomputed and rewritten.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro.resilience import durable
from repro.resilience.faults import draw


@dataclass(frozen=True)
class CacheEntry:
    """One cached coloring: the start vector and its summary stats."""

    starts: np.ndarray
    maxcolor: int
    algorithm: str
    compute_seconds: float = 0.0

    def to_json(self, key: str) -> dict:
        return {
            "key": key,
            "starts": np.asarray(self.starts).ravel().tolist(),
            "shape": list(np.asarray(self.starts).shape),
            "maxcolor": int(self.maxcolor),
            "algorithm": self.algorithm,
            "compute_seconds": float(self.compute_seconds),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CacheEntry":
        starts = np.asarray(obj["starts"], dtype=np.int64)
        shape = obj.get("shape")
        if shape:
            starts = starts.reshape(tuple(int(s) for s in shape))
        return cls(
            starts=starts,
            maxcolor=int(obj["maxcolor"]),
            algorithm=obj["algorithm"],
            compute_seconds=float(obj.get("compute_seconds", 0.0)),
        )


class ResultCache:
    """Thread-safe LRU of colorings with an optional spill directory.

    ``capacity=0`` disables caching entirely (every :meth:`get` is a miss
    and :meth:`put` is a no-op) — the configuration the service benchmark
    uses for its uncached baseline.

    ``spill_dir`` adds the disk tier (one atomic file per key,
    write-through, readable by sibling workers); without it the cache is
    memory-only.
    """

    def __init__(
        self,
        capacity: int = 512,
        max_spill_entries: int = 100_000,
        *,
        spill_dir: Optional[str | Path] = None,
    ) -> None:
        self.capacity = int(capacity)
        self.spill_dir = Path(spill_dir) if spill_dir else None
        self._dir_written: set[str] = set()
        self.max_spill_entries = int(max_spill_entries)
        self._items: OrderedDict[str, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.spill_hits = 0
        self.spilled = 0
        self.spill_read_errors = 0
        if self.spill_dir is not None:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            self.load_spill()

    # ------------------------------------------------------------------ tiers
    def get(self, key: str) -> Optional[CacheEntry]:
        """The cached entry for ``key``, or ``None`` (counted as a miss)."""
        return self._lookup(key, count_miss=True)

    def peek(self, key: str) -> Optional[CacheEntry]:
        """Like :meth:`get` but an absence is *not* counted as a miss.

        The server's cache fast path probes here before admitting a
        request to the compute queue; a fast-path miss falls through to the
        queue's own :meth:`get`, which counts it exactly once.
        """
        return self._lookup(key, count_miss=False)

    def _lookup(self, key: str, *, count_miss: bool) -> Optional[CacheEntry]:
        with self._lock:
            entry = self._items.get(key)
            if entry is not None:
                self.hits += 1
                self._items.move_to_end(key)
                return entry
        entry = self._read_dir(key) if self.spill_dir is not None else None
        with self._lock:
            if entry is None:
                if count_miss:
                    self.misses += 1
                return None
            self.hits += 1
            self.spill_hits += 1
        self.put(key, entry)  # promote back to the memory tier
        return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        """Insert (or refresh) an entry, evicting the LRU one past capacity.

        With a ``spill_dir``, entries are written through on first insert,
        so sibling workers (and a restarted self) can read them while they
        are still hot here, and an evicted entry is already on disk.
        """
        if self.capacity <= 0:
            return
        with self._lock:
            self._items[key] = entry
            self._items.move_to_end(key)
            while len(self._items) > self.capacity:
                self._items.popitem(last=False)
                self.evictions += 1
        if self.spill_dir is not None:
            self._write_dir(key, entry)

    # ------------------------------------------------------------------ spill
    def _write_dir(self, key: str, entry: CacheEntry) -> None:
        """Write one entry through to the spill directory, atomically.

        :func:`~repro.resilience.durable.publish` moves a temp file into
        place, so sibling workers reading concurrently either see the whole
        entry or no file at all — never a torn one.  Injected
        ``cache.spill.write`` faults damage the *content* (the rename itself
        stays atomic), exercising the reader's degradation.
        """
        assert self.spill_dir is not None
        with self._lock:
            if key in self._dir_written or len(self._dir_written) >= self.max_spill_entries:
                return
            self._dir_written.add(key)
        payload = json.dumps(entry.to_json(key))
        fault = draw("cache.spill.write", key)
        if fault is not None and fault.kind in ("corrupt", "torn"):
            payload = payload[: max(1, len(payload) // 2)]
        try:
            # No read-back: a damaged file reads as a counted miss anyway.
            durable.publish(self.spill_dir / f"{key}.json", payload, lambda _tmp: True)
        except OSError:
            # Disk trouble degrades to "not spilled"; forget the key so a
            # later insert retries the write instead of assuming it landed.
            with self._lock:
                self._dir_written.discard(key)
            return
        with self._lock:
            self.spilled += 1

    def _read_dir(self, key: str) -> Optional[CacheEntry]:
        """Read one entry from the spill directory; damage degrades to a miss."""
        assert self.spill_dir is not None
        path = self.spill_dir / f"{key}.json"
        try:
            text = path.read_text()
        except OSError:
            return None  # absent (or unreadable): a plain miss, not corruption
        try:
            obj = json.loads(text)
            if obj.get("key") != key:
                raise ValueError("spill file holds a different key")
            return CacheEntry.from_json(obj)
        except (json.JSONDecodeError, KeyError, ValueError, TypeError):
            with self._lock:
                self.spill_read_errors += 1
            try:  # drop the damaged file so the single writer can rewrite it
                path.unlink(missing_ok=True)
                with self._lock:
                    self._dir_written.discard(key)
            except OSError:  # pragma: no cover
                pass
            return None

    def load_spill(self) -> int:
        """Index the spill directory (warm start); returns entries indexed.

        The directory *is* the index: this enumerates ``*.json`` files (so
        ``max_spill_entries`` accounting survives a restart) without parsing
        them; damage is detected, counted, and healed lazily on first read.
        A cache built with a ``spill_dir`` has already run it once.
        """
        if self.spill_dir is None:
            return 0
        with self._lock:
            keys = [path.stem for path in self.spill_dir.glob("*.json")]
            self._dir_written.update(keys)
        return len(keys)

    # ------------------------------------------------------------- lifecycle
    def clear(self) -> None:
        with self._lock:
            self._items.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def stats(self) -> dict:
        """Counters and occupancy for the metrics snapshot."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "spill_hits": self.spill_hits,
                "spilled": self.spilled,
                "spill_read_errors": self.spill_read_errors,
                "size": len(self._items),
                "capacity": self.capacity,
                "spill_index_size": len(self._dir_written),
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }
