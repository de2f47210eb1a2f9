"""Fingerprint helpers: canonicalization, content keys, array digests.

``content_key`` must stay byte-identical to the pre-refactor
``service/protocol.py`` implementation — spill-directory entries written
by older servers are found by new ones through these digests.  The golden digest below pins that.
"""

import numpy as np

from repro.runtime.fingerprint import array_digest, canonical_weights, content_key


class TestCanonicalWeights:
    def test_always_c_contiguous_int64(self):
        out = canonical_weights([[1, 2], [3, 4]])
        assert out.dtype == np.int64
        assert out.flags["C_CONTIGUOUS"]

    def test_fortran_order_and_int32_normalize(self):
        base = np.arange(12, dtype=np.int64).reshape(3, 4)
        fortran = np.asfortranarray(base.astype(np.int32))
        assert np.array_equal(canonical_weights(fortran), base)
        assert canonical_weights(fortran).tobytes() == base.tobytes()


class TestContentKey:
    def test_golden_digest(self):
        """Pin the digest format: blake2b-20 over 'ndim|shape|' + bytes + '|alg'."""
        import hashlib

        arr = np.arange(6, dtype=np.int64).reshape(2, 3)
        h = hashlib.blake2b(digest_size=20)
        h.update(b"2d|2x3|")
        h.update(arr.tobytes())
        h.update(b"|GLL")
        assert content_key(arr, "GLL") == h.hexdigest()
        assert len(content_key(arr, "GLL")) == 40  # 20-byte digest, hex

    def test_equal_content_collides(self):
        a = [[5, 1], [2, 9]]
        b = np.array(a, dtype=np.int32)
        c = np.asfortranarray(np.array(a, dtype=np.int64))
        assert content_key(a, "BD") == content_key(b, "BD") == content_key(c, "BD")

    def test_algorithm_distinguishes(self):
        arr = np.ones((3, 3), dtype=np.int64)
        assert content_key(arr, "GLL") != content_key(arr, "GZO")

    def test_shape_distinguishes_same_bytes(self):
        flat = np.arange(6, dtype=np.int64)
        assert content_key(flat.reshape(2, 3), "GLL") != content_key(
            flat.reshape(3, 2), "GLL"
        )
        assert content_key(flat, "GLL") != content_key(flat.reshape(2, 3), "GLL")

    def test_values_distinguish(self):
        a = np.zeros((2, 2), dtype=np.int64)
        b = a.copy()
        b[1, 1] = 1
        assert content_key(a, "GLL") != content_key(b, "GLL")

    def test_service_protocol_reexports_same_function(self):
        from repro.service import protocol

        assert protocol.content_key is content_key


class TestArrayDigest:
    def test_deterministic_and_sized(self):
        arr = np.arange(10, dtype=np.int64)
        d = array_digest(arr)
        assert d == array_digest(arr.copy())
        assert len(d) == 16
        assert len(array_digest(arr, digest_size=8)) == 8

    def test_noncontiguous_input_handled(self):
        arr = np.arange(20, dtype=np.int64)
        strided = arr[::2]
        assert array_digest(strided) == array_digest(strided.copy())

    def test_content_sensitivity(self):
        a = np.arange(10, dtype=np.int64)
        b = a.copy()
        b[0] = 99
        assert array_digest(a) != array_digest(b)


class TestConfigFingerprint:
    def test_cached_once_per_config_and_equal_to_the_digest(self):
        from repro.runtime.config import RuntimeConfig
        from repro.runtime.fingerprint import config_fingerprint

        default = RuntimeConfig()
        overridden = default.with_overrides(
            fast_paths=False, max_cell_retries=7, tiling={"tile_shape": (8, 8)}
        )
        for config in (default, overridden):
            assert config.fingerprint == config_fingerprint(config)
            assert config.fingerprint is config.fingerprint  # computed once
        assert default.fingerprint != overridden.fingerprint
        # The cache is not a field: equality and hashing ignore it.
        fresh = RuntimeConfig()
        assert fresh == default and hash(fresh) == hash(default)
