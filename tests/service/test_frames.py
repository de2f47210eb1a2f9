"""Codec tests for the binary wire frames (:mod:`repro.service.frames`).

Three layers of assurance:

* **Property round-trips** — hypothesis-generated headers, payloads, keys,
  and flags survive ``encode_frame`` → ``decode_frame`` bit-for-bit, and
  color requests decode back to the request that was encoded (same content
  key, same weights).
* **Truncation/corruption fuzz** — a valid frame cut at *every* byte
  boundary raises the typed :class:`TornFrameError`; corrupted preambles
  raise :class:`FrameError`; neither ever hangs or escapes as an untyped
  exception.
* **Stream reads** — :func:`read_frame_async` stops at the first two
  bytes that are not the magic, so a peer speaking another protocol is
  refused without waiting for a full preamble.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import frames
from repro.service.frames import (
    FLAG_TRAILING_NEWLINE,
    FRAME_MAGIC,
    FRAME_VERSION,
    KEY_SIZE,
    OP_COLOR,
    OP_HELLO,
    OP_RESPONSE,
    PREAMBLE_SIZE,
    Frame,
    FrameError,
    TornFrameError,
    decode_color_request,
    decode_frame,
    decode_preamble,
    encode_color_request,
    encode_frame,
    encode_hello,
    encode_hello_ok,
    encode_result,
    read_frame_async,
    response_to_message,
)
from repro.service.protocol import ColorRequest, ProtocolError, ServedResult

# JSON-representable header values (what real headers are made of).
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=32),
)
_headers = st.dictionaries(
    st.text(min_size=1, max_size=16),
    st.one_of(_json_scalars, st.lists(_json_scalars, max_size=4)),
    max_size=8,
)
_keys = st.one_of(
    st.just(""),
    st.binary(min_size=KEY_SIZE, max_size=KEY_SIZE).map(bytes.hex),
)
_opcodes = st.sampled_from(frames._OPCODES)


def _read_fed(raw: bytes, reads: int = 1) -> list:
    """``reads`` frames read with :func:`read_frame_async` from a stream
    reader fed ``raw`` and then EOF."""

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return [await read_frame_async(reader) for _ in range(reads)]

    return asyncio.run(read())


class TestFrameRoundTrip:
    @given(
        opcode=_opcodes,
        header=_headers,
        payload=st.binary(max_size=256),
        key=_keys,
        newline=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_identity(self, opcode, header, payload, key, newline):
        flags = FLAG_TRAILING_NEWLINE if newline else 0
        raw = encode_frame(opcode, header, payload, key=key, flags=flags)
        frame = decode_frame(raw)
        assert frame.opcode == opcode
        assert frame.flags == flags
        assert frame.payload == payload
        assert frame.header == json.loads(json.dumps(header))
        # All-zero keys decode to "" by design (zeros mean "no key").
        expected_key = "" if key == "00" * KEY_SIZE else key
        assert frame.key == expected_key

    @given(
        opcode=_opcodes,
        header=_headers,
        payload=st.binary(max_size=256),
        newline=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_stream_read_matches_decode(self, opcode, header, payload, newline):
        flags = FLAG_TRAILING_NEWLINE if newline else 0
        raw = encode_frame(opcode, header, payload, flags=flags)
        # Two frames back to back, then a clean EOF at the boundary.
        first, second, third = _read_fed(raw + raw, reads=3)
        assert first == second == decode_frame(raw)
        assert third is None

    def test_non_frame_bytes_fail_on_the_magic(self):
        # Two bytes suffice: the reader never waits for a full preamble
        # from a peer speaking something else (no EOF is fed here).
        async def read():
            reader = asyncio.StreamReader()
            reader.feed_data(b'{"')
            return await asyncio.wait_for(read_frame_async(reader), 5.0)

        with pytest.raises(FrameError, match="magic"):
            asyncio.run(read())

    def test_hello_is_newline_free_and_parseable(self):
        raw = encode_hello()
        assert raw.endswith(b"\n") and b"\n" not in raw[:-1]
        frame = decode_frame(raw)
        assert frame.opcode == OP_HELLO
        assert FRAME_VERSION in frame.header["frames"]
        reply = decode_frame(encode_hello_ok("w7"))
        assert reply.opcode == OP_RESPONSE
        assert reply.header["worker_id"] == "w7"
        assert FRAME_VERSION in reply.header["frames"]

    def test_magic_is_not_json(self):
        # A JSON (or any UTF-8 text) peer fails the magic check on its
        # first two bytes.
        assert FRAME_MAGIC[0:1] not in (b"{", b"[", b" ")
        with pytest.raises(UnicodeDecodeError):
            FRAME_MAGIC.decode("utf-8")


class TestColorRequestRoundTrip:
    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 7), st.integers(1, 7)),
            st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
        ),
        seed=st.integers(0, 2**31),
        algorithm=st.sampled_from(["GLL", "BDP", "GLF", "GCP"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_color_request_round_trip(self, shape, seed, algorithm):
        weights = np.random.default_rng(seed).integers(
            1, 100, size=shape, dtype=np.int64
        )
        request = ColorRequest(weights=weights, algorithm=algorithm,
                               request_id="prop")
        via_frame = decode_color_request(
            decode_frame(encode_color_request(request))
        )
        assert via_frame.key == request.key  # same content key → same cache entry
        assert np.array_equal(via_frame.weights, weights)
        assert via_frame.algorithm == algorithm
        assert via_frame.shape == shape
        assert via_frame.request_id == "prop"

    def test_options_survive_the_frame(self):
        weights = np.arange(1, 26, dtype=np.int64).reshape(5, 5)
        direct = ColorRequest(
            weights=weights, algorithm="GLL", request_id="opts", tiled=True,
            tile_shape=(3, 3), validate=True, timeout=1.5,
        )
        framed = decode_color_request(decode_frame(encode_color_request(direct)))
        assert framed.tiled and framed.tile_shape == (3, 3)
        assert framed.validate
        assert framed.timeout == pytest.approx(1.5)
        assert framed.key == direct.key

    def test_payload_length_must_match_shape(self):
        weights = np.ones((3, 3), dtype=np.int64)
        raw = encode_color_request(
            ColorRequest(weights=weights, algorithm="GLL", request_id="x")
        )
        frame = decode_frame(raw)
        lying = Frame(
            frame.opcode, frame.flags, frame.key,
            dict(frame.header, shape=[4, 4]), frame.payload,
        )
        with pytest.raises(ProtocolError, match="payload bytes"):
            decode_color_request(lying)

    def test_foreign_dtype_rejected(self):
        frame = Frame(
            OP_COLOR, 0, "",
            {"op": "color", "shape": [2, 2], "dtype": "<f8", "algorithm": "GLL"},
            b"\x00" * 32,
        )
        with pytest.raises(ProtocolError, match="dtype"):
            decode_color_request(frame)


class TestResultFrames:
    def test_ok_result_round_trip(self):
        starts = np.arange(12, dtype=np.int64)
        result = ServedResult(
            status="ok", starts=starts, maxcolor=11,
            source="computed", compute_seconds=0.004, batch_size=3,
        )
        frame = decode_frame(encode_result(result, "req-1", {"worker": "w2"}))
        message = response_to_message(frame)
        assert message["status"] == "ok" and message["id"] == "req-1"
        assert message["worker"] == "w2"
        assert message["maxcolor"] == 11
        assert np.array_equal(message["starts"], starts)

    def test_error_result_has_no_payload(self):
        result = ServedResult(status="invalid", error="weights must be non-negative")
        frame = decode_frame(encode_result(result, "req-2"))
        assert frame.payload == b""
        message = response_to_message(frame)
        assert message["status"] == "invalid"
        assert "non-negative" in message["error"]

    def test_ragged_payload_rejected(self):
        raw = encode_frame(OP_RESPONSE, {"status": "ok"}, b"\x01" * 9)
        with pytest.raises(FrameError, match="int64"):
            response_to_message(decode_frame(raw))


class TestTruncationAndCorruption:
    def _sample_frame(self) -> bytes:
        return encode_frame(
            OP_COLOR, {"op": "color", "id": "t"}, b"\x07" * 64,
            key="ab" * KEY_SIZE,
        )

    def test_every_truncation_is_torn(self):
        raw = self._sample_frame()
        for cut in range(len(raw)):
            with pytest.raises(TornFrameError):
                decode_frame(raw[:cut])
            if cut == 0:
                assert _read_fed(b"") == [None]  # clean EOF, not torn
            else:
                with pytest.raises(TornFrameError):
                    _read_fed(raw[:cut])

    def test_bad_magic_is_frame_error(self):
        raw = bytearray(self._sample_frame())
        raw[0] ^= 0xFF
        with pytest.raises(FrameError):
            decode_frame(bytes(raw))

    def test_unsupported_version_is_frame_error(self):
        raw = bytearray(self._sample_frame())
        raw[2] = 99
        with pytest.raises(FrameError, match="version"):
            decode_frame(bytes(raw))

    def test_unknown_opcode_is_frame_error(self):
        raw = bytearray(self._sample_frame())
        raw[4] = 250
        with pytest.raises(FrameError, match="opcode"):
            decode_frame(bytes(raw))

    def test_oversize_lengths_are_frame_errors(self):
        raw = bytearray(self._sample_frame())
        raw[25:29] = (frames.MAX_HEADER_BYTES + 1).to_bytes(4, "little")
        with pytest.raises(FrameError, match="header"):
            decode_preamble(bytes(raw[:PREAMBLE_SIZE]))

    def test_garbage_header_is_frame_error(self):
        good = self._sample_frame()
        header_len = int.from_bytes(good[25:29], "little")
        raw = bytearray(good)
        start = PREAMBLE_SIZE
        raw[start:start + header_len] = b"\xff" * header_len
        with pytest.raises(FrameError, match="header"):
            decode_frame(bytes(raw))

    @given(data=st.binary(min_size=PREAMBLE_SIZE, max_size=PREAMBLE_SIZE))
    @settings(max_examples=200, deadline=None)
    def test_random_preambles_never_escape_typed_errors(self, data):
        try:
            decode_preamble(data)
        except FrameError:
            pass  # TornFrameError included — both are the typed contract

    @given(data=st.binary(max_size=200), flips=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_never_hang_or_escape(self, data, flips):
        raw = bytearray(self._sample_frame())
        # XOR a couple of pseudo-random positions, then maybe append noise.
        for shift in (0, 7):
            pos = (flips >> shift) % len(raw)
            raw[pos] ^= (flips % 255) + 1
        blob = bytes(raw) + data
        try:
            decode_frame(blob)
            _read_fed(blob)
        except FrameError:
            pass
        except ProtocolError:
            pass  # decode_color_request-level rejects are also typed
