"""Tests for the content-addressed result cache and its spill directory."""

import json

import numpy as np

from repro.service.cache import CacheEntry, ResultCache


def _entry(n: int) -> CacheEntry:
    return CacheEntry(
        starts=np.arange(n, dtype=np.int64),
        maxcolor=n,
        algorithm="GLL",
        compute_seconds=0.001,
    )


class TestLRU:
    def test_hit_and_miss_counters(self):
        cache = ResultCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", _entry(3))
        assert cache.get("a").maxcolor == 3
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", _entry(1))
        cache.put("b", _entry(2))
        cache.get("a")  # refresh a: b becomes the LRU victim
        cache.put("c", _entry(3))
        assert cache.get("a") is not None
        assert cache.get("b") is None
        assert cache.stats()["evictions"] == 1

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", _entry(1))
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_refresh_does_not_grow(self):
        cache = ResultCache(capacity=2)
        cache.put("a", _entry(1))
        cache.put("a", _entry(1))
        assert len(cache) == 1


class TestSpill:
    """Serving through the spill directory: eviction, shape, restart."""

    def test_evicted_entry_served_from_spill(self, tmp_path):
        cache = ResultCache(capacity=1, spill_dir=tmp_path / "l2")
        cache.put("a", _entry(5))
        cache.put("b", _entry(6))  # evicts a from memory; its file stays
        entry = cache.get("a")  # spill hit, promoted back to memory
        assert entry is not None and entry.maxcolor == 5
        assert np.array_equal(entry.starts, np.arange(5))
        stats = cache.stats()
        assert stats["spill_hits"] == 1 and stats["evictions"] == 2
        # Both entries were written through once; the promotion wrote nothing.
        assert stats["spilled"] == 2

    def test_spill_preserves_shape(self, tmp_path):
        cache = ResultCache(capacity=1, spill_dir=tmp_path / "l2")
        grid = CacheEntry(
            starts=np.arange(6, dtype=np.int64).reshape(2, 3),
            maxcolor=9,
            algorithm="BDP",
        )
        cache.put("g", grid)
        cache.put("x", _entry(1))  # evict g
        restored = cache.get("g")
        assert restored.starts.shape == (2, 3)

    def test_warm_start_indexes_existing_spill(self, tmp_path):
        first = ResultCache(capacity=1, spill_dir=tmp_path / "l2")
        first.put("a", _entry(4))
        first.put("b", _entry(5))

        second = ResultCache(capacity=4, spill_dir=tmp_path / "l2")
        assert second.stats()["spill_index_size"] == 2  # indexed when built
        entry = second.get("a")
        assert entry is not None and entry.maxcolor == 4
        assert second.stats()["spill_hits"] == 1

    def test_warm_start_tolerates_truncated_tail(self, tmp_path):
        cache = ResultCache(capacity=1, spill_dir=tmp_path / "l2")
        cache.put("a", _entry(4))
        cache.put("b", _entry(5))
        (tmp_path / "l2" / "c.json").write_text('{"key": "c", "starts"')  # torn
        fresh = ResultCache(capacity=4, spill_dir=tmp_path / "l2")
        assert fresh.get("a").maxcolor == 4
        assert fresh.get("b").maxcolor == 5
        assert fresh.get("c") is None
        assert fresh.stats()["spill_read_errors"] == 1

    def test_no_spill_without_path(self):
        cache = ResultCache(capacity=1)
        cache.put("a", _entry(1))
        cache.put("b", _entry(2))
        assert cache.get("a") is None
        assert cache.stats()["spilled"] == 0


class TestDirSpill:
    """The directory's files: atomic write-through, sibling reads, damage."""

    def test_write_through_on_put(self, tmp_path):
        cache = ResultCache(capacity=4, spill_dir=tmp_path / "l2")
        cache.put("aa", _entry(3))
        files = list((tmp_path / "l2").glob("*.json"))
        assert [f.stem for f in files] == ["aa"]
        assert json.loads(files[0].read_text())["maxcolor"] == 3
        assert not list((tmp_path / "l2").glob(".*tmp"))  # atomic rename

    def test_sibling_cache_reads_cold_entry(self, tmp_path):
        writer = ResultCache(capacity=4, spill_dir=tmp_path / "l2")
        writer.put("k1", _entry(7))
        reader = ResultCache(capacity=4, spill_dir=tmp_path / "l2")
        entry = reader.get("k1")  # never put here — read from the dir tier
        assert entry is not None and entry.maxcolor == 7
        assert np.array_equal(entry.starts, np.arange(7))
        assert reader.stats()["spill_hits"] == 1
        # Promoted to this cache's memory: the second read is a plain hit.
        reader.get("k1")
        assert reader.stats()["spill_hits"] == 1

    def test_warm_start_indexes_directory(self, tmp_path):
        first = ResultCache(capacity=4, spill_dir=tmp_path / "l2")
        first.put("k1", _entry(2))
        first.put("k2", _entry(3))
        second = ResultCache(capacity=4, spill_dir=tmp_path / "l2")
        assert second.stats()["spill_index_size"] == 2
        assert second.load_spill() == 2  # re-indexing finds the same files
        assert second.stats()["spill_index_size"] == 2

    def test_corrupt_file_is_counted_and_healed(self, tmp_path):
        cache = ResultCache(capacity=1, spill_dir=tmp_path / "l2")
        cache.put("bad", _entry(4))
        (tmp_path / "l2" / "bad.json").write_text('{"key": "bad", "sta')
        cache.put("evictor", _entry(5))  # evict "bad" from memory
        assert cache.get("bad") is None  # damaged file → miss, not a crash
        assert cache.stats()["spill_read_errors"] == 1
        assert not (tmp_path / "l2" / "bad.json").exists()  # unlinked
        # A rewrite heals the key (the guard set forgot the damaged file).
        cache.put("bad", _entry(4))
        assert (tmp_path / "l2" / "bad.json").exists()

    def test_key_mismatch_rejected(self, tmp_path):
        cache = ResultCache(capacity=1, spill_dir=tmp_path / "l2")
        cache.put("honest", _entry(2))
        # A file renamed to another key must not poison that key.
        (tmp_path / "l2" / "liar.json").write_text(
            (tmp_path / "l2" / "honest.json").read_text()
        )
        fresh = ResultCache(capacity=1, spill_dir=tmp_path / "l2")
        assert fresh.get("liar") is None
        assert fresh.stats()["spill_read_errors"] == 1

    def test_max_spill_entries_bounds_the_directory(self, tmp_path):
        cache = ResultCache(
            capacity=8, spill_dir=tmp_path / "l2", max_spill_entries=2
        )
        for i in range(5):
            cache.put(f"k{i}", _entry(i + 1))
        assert len(list((tmp_path / "l2").glob("*.json"))) == 2
