"""Shared content-addressing helpers (blake2b digests of arrays and requests).

Two subsystems independently grew blake2b fingerprints: the service result
cache hashes ``(stencil kind, shape, weight bytes, algorithm)`` into a
content key, and the kernel substrate hashes vertex orders to cache
wavefront schedules.  Both live here now, with one canonicalization rule.

Compatibility matters: :func:`content_key` must produce byte-identical
digests to the original ``service/protocol.py`` implementation so the
spill-directory entries (one ``<key>.json`` per result) written by older
servers still serve a new one, and
:func:`array_digest` must match the original substrate digest so nothing
about wavefront caching changes under the refactor.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["canonical_weights", "content_key", "array_digest", "config_fingerprint"]


def canonical_weights(weights) -> np.ndarray:
    """A weight grid canonicalized to C-contiguous ``int64``.

    Lists, ``int32`` arrays, and Fortran-ordered arrays of equal content all
    map to the same bytes — required for content keys to collide exactly
    when colorings are identical.
    """
    return np.ascontiguousarray(weights, dtype=np.int64)


def content_key(weights, algorithm: str) -> str:
    """Canonical content hash of a coloring request (hex digest).

    Two requests share a key iff they ask for the same algorithm on the
    same-kind stencil of the same shape with identical weights — exactly the
    condition under which their colorings are identical (all registry
    algorithms are deterministic).  Options that cannot change the coloring
    (``fast``, ``validate``, deadlines, request ids) are deliberately
    excluded from the hash.
    """
    arr = canonical_weights(weights)
    h = hashlib.blake2b(digest_size=20)
    h.update(f"{arr.ndim}d|{'x'.join(str(s) for s in arr.shape)}|".encode())
    h.update(arr.tobytes())
    h.update(b"|" + algorithm.encode())
    return h.hexdigest()


def array_digest(arr: np.ndarray, *, digest_size: int = 16) -> bytes:
    """A raw blake2b digest of an array's bytes (dtype/shape NOT hashed).

    Used to key per-order wavefront schedules: orders of one substrate all
    share dtype and length, so hashing the bytes alone is unambiguous there.
    Callers mixing dtypes or shapes must disambiguate themselves.
    """
    return hashlib.blake2b(
        np.ascontiguousarray(arr).tobytes(), digest_size=digest_size
    ).digest()


def config_fingerprint(config) -> str:
    """A short stable hex digest of a (possibly nested) config dataclass.

    Used by :class:`repro.api.ColoringResult` provenance to record *which*
    runtime configuration produced a coloring without embedding the whole
    config.  Fields are sorted, so the digest is order-independent; nested
    dataclasses (``RuntimeConfig.tiling``) recurse through ``asdict``.
    """
    from dataclasses import asdict, is_dataclass

    payload = asdict(config) if is_dataclass(config) else dict(config)
    text = repr(sorted(payload.items()))
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()
