"""Golden wire bytes: every frame encoder pinned by a digest.

Each frame below is built from fixed inputs and its blake2b digest is
compared with a pinned value.  A change to any byte a client or worker
puts on the wire — preamble, header key order, float formatting, payload
layout, the hello's padding and trailing newline — fails here first.
"""

import hashlib

import numpy as np
import pytest

from repro.service.frames import (
    encode_color_request,
    encode_hello,
    encode_hello_ok,
    encode_recolor_request,
    encode_recolor_result,
    encode_result,
)
from repro.service.protocol import ColorRequest, RecolorRequest, ServedResult

_W = np.arange(1, 13, dtype=np.int64).reshape(3, 4)
_STARTS = np.arange(12, dtype=np.int64)


def _frames() -> dict[str, bytes]:
    return {
        "hello": encode_hello(),
        "hello_ok": encode_hello_ok("w3"),
        "hello_ok_anon": encode_hello_ok(),
        "color": encode_color_request(
            ColorRequest(weights=_W, algorithm="BDP", request_id="c1")
        ),
        "color_tiled": encode_color_request(
            ColorRequest(
                weights=_W, algorithm="GLL", request_id="c2", tiled=True,
                tile_shape=(2, 2), validate=True, timeout=1.5,
            )
        ),
        "color_reference": encode_color_request(
            ColorRequest(weights=_W, algorithm="GLF", request_id="c3", fast=False)
        ),
        "recolor_seed": encode_recolor_request(
            RecolorRequest(session="s1", request_id="r1", weights=_W)
        ),
        "recolor_delta": encode_recolor_request(
            RecolorRequest(
                session="s1", request_id="r2",
                delta_idx=np.array([0, 5], dtype=np.int64),
                delta_weights=np.array([9, 2], dtype=np.int64),
            )
        ),
        "result_ok": encode_result(
            ServedResult(
                status="ok", starts=_STARTS, maxcolor=14, source="computed",
                compute_seconds=0.25, batch_size=2,
            ),
            "c1", {"total_ms": 1.5, "worker": "w0"}, key="ab" * 20,
        ),
        "result_invalid": encode_result(
            ServedResult(status="invalid", error="bad"), "c4"
        ),
        "recolor_result_seed": encode_recolor_result(
            {"id": "r1", "session": "s1", "status": "ok", "mode": "seed",
             "maxcolor": 14},
            starts=_STARTS,
        ),
        "recolor_result_delta": encode_recolor_result(
            {"id": "r2", "session": "s1", "status": "ok",
             "mode": "gll-suffix", "maxcolor": 15},
            changed_idx=np.array([5, 6], dtype=np.int64),
            changed_starts=np.array([3, 4], dtype=np.int64),
        ),
    }


GOLDEN = {
    "hello": "45c1e5694bbe516e2d769547fa067a34",
    "hello_ok": "cdf583747a73b809ce8a23aecb49f018",
    "hello_ok_anon": "f4f6e7a35be34b21fd0991f5e0787c88",
    "color": "2d6f9fec148dbffb99972d034122c87f",
    "color_tiled": "371a376d62d6b4f8ac8717e119a9cd48",
    "color_reference": "7c5e463c0950a7e43d28286ba290f559",
    "recolor_seed": "b9dbcb271fb2dd89b69032ab4b4f5b30",
    "recolor_delta": "cfcd47abb020384bfdd5156f8c75a1e1",
    "result_ok": "2b9061acacac3fab704246c3e8dece1d",
    "result_invalid": "f06063904b1c151c2fd8d7aa47ad5d58",
    "recolor_result_seed": "ca5994ef083ba293b3cb31d18850975e",
    "recolor_result_delta": "7d90336399ea8e77ff1f44eece9d62ce",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_frame_bytes_are_pinned(name):
    raw = _frames()[name]
    assert hashlib.blake2b(raw, digest_size=16).hexdigest() == GOLDEN[name]


def test_hello_keeps_its_trailing_newline_flag():
    raw = encode_hello()
    assert raw[3] == 0x01 and raw.endswith(b"\n") and b"\n" not in raw[:-1]
