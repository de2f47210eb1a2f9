"""Tests for the service protocol and content addressing.

Every message travels as a binary frame, so requests and responses are
encoded and decoded here through :mod:`repro.service.frames`.
"""

import numpy as np
import pytest

from repro.service.frames import (
    OP_COLOR,
    OP_PING,
    OP_RESPONSE,
    PREAMBLE_SIZE,
    FrameError,
    decode_color_request,
    decode_frame,
    decode_preamble,
    decode_recolor_request,
    encode_color_request,
    encode_frame,
    encode_recolor_request,
    encode_result,
    response_to_message,
)
from repro.service.protocol import (
    ColorRequest,
    ProtocolError,
    RecolorRequest,
    ServedResult,
    content_key,
)


class TestContentKey:
    def test_deterministic(self):
        w = np.arange(12).reshape(3, 4)
        assert content_key(w, "BDP") == content_key(w.copy(), "BDP")

    def test_algorithm_changes_key(self):
        w = np.ones((4, 4), dtype=np.int64)
        assert content_key(w, "BDP") != content_key(w, "GLL")

    def test_weights_change_key(self):
        w = np.ones((4, 4), dtype=np.int64)
        w2 = w.copy()
        w2[0, 0] = 2
        assert content_key(w, "BDP") != content_key(w2, "BDP")

    def test_shape_changes_key_same_bytes(self):
        # Same flat content, different grid shape — different instances.
        w = np.arange(12)
        assert content_key(w.reshape(3, 4), "BDP") != content_key(
            w.reshape(4, 3), "BDP"
        )

    def test_2d_vs_3d_disambiguated(self):
        w = np.arange(8)
        assert content_key(w.reshape(2, 4), "BDP") != content_key(
            w.reshape(2, 4, 1), "BDP"
        )

    def test_dtype_and_order_canonicalized(self):
        # Lists, int32, and Fortran-ordered arrays of equal content collide.
        w = np.arange(12, dtype=np.int32).reshape(3, 4)
        assert content_key(w, "GLL") == content_key(
            np.asfortranarray(w.astype(np.int64)), "GLL"
        )

    def test_options_do_not_affect_key(self):
        w = np.ones((4, 4), dtype=np.int64)
        a = ColorRequest(weights=w, algorithm="BDP", fast=True, validate=True)
        b = ColorRequest(weights=w, algorithm="BDP", fast=False, timeout=1.0,
                         request_id="other")
        assert a.key == b.key


def _with_header(raw: bytes, header: bytes) -> bytes:
    """``raw`` with its JSON header replaced by ``header`` (lengths fixed)."""
    header_len = decode_preamble(raw[:PREAMBLE_SIZE])[4]
    preamble = bytearray(raw[:PREAMBLE_SIZE])
    preamble[25:29] = len(header).to_bytes(4, "little")
    return bytes(preamble) + header + raw[PREAMBLE_SIZE + header_len:]


class TestFraming:
    """The JSON header of a frame must be one JSON object."""

    def test_roundtrip(self):
        header = {"op": "ping", "id": "x"}
        assert decode_frame(encode_frame(OP_PING, header)).header == header

    def test_empty_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(_with_header(encode_frame(OP_PING, {}), b""))

    def test_non_object_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(_with_header(encode_frame(OP_PING, {}), b"[1,2,3]"))

    def test_malformed_json_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(_with_header(encode_frame(OP_PING, {}), b"{not json"))


def _via_frame(request: ColorRequest) -> ColorRequest:
    return decode_color_request(decode_frame(encode_color_request(request)))


_GRID = np.ones((4, 4), dtype=np.int64)
_BASES = {
    "color": ColorRequest(weights=_GRID, algorithm="BDP", request_id="r"),
    "seed": RecolorRequest(session="s", request_id="r", weights=_GRID),
    "delta": RecolorRequest(
        session="s", request_id="r",
        delta_idx=np.array([1, 2]), delta_weights=np.array([3, 4]),
    ),
}


def _refused_frame(patch: dict):
    """A real frame of ``patch["form"]`` (default ``color``) with header
    fields patched (``None`` deletes one) and, given ``payload``, that
    ``int64`` payload instead of the encoded one."""
    patch = dict(patch)
    base = _BASES[patch.pop("form", "color")]
    payload = patch.pop("payload", None)
    if isinstance(base, ColorRequest):
        frame = decode_frame(encode_color_request(base))
    else:
        frame = decode_frame(encode_recolor_request(base))
    header = {k: v for k, v in {**frame.header, **patch}.items() if v is not None}
    if payload is not None:
        frame = frame._replace(payload=np.asarray(payload, "<i8").tobytes())
    return frame._replace(header=header)


class TestRequestWire:
    def test_roundtrip_2d(self):
        w = np.random.default_rng(0).integers(0, 9, size=(5, 7))
        request = ColorRequest(weights=w, algorithm="GLL", validate=True,
                               timeout=1.5, request_id="r1")
        decoded = _via_frame(request)
        assert np.array_equal(decoded.weights, w)
        assert decoded.algorithm == "GLL"
        assert decoded.validate is True
        assert decoded.timeout == pytest.approx(1.5)
        assert decoded.request_id == "r1"
        assert decoded.key == request.key

    def test_roundtrip_3d(self):
        w = np.random.default_rng(1).integers(0, 9, size=(3, 4, 5))
        request = ColorRequest(weights=w, algorithm="BDP", fast=True)
        decoded = _via_frame(request)
        assert decoded.weights.shape == (3, 4, 5)
        assert decoded.fast is True
        assert decoded.shape == (3, 4, 5)
        assert decoded.algorithm == "BDP"

    # Refusals of a color or recolor request, on a real frame through
    # decode_color_request / decode_recolor_request (the api-version and
    # runtime refusals are in test_protocol_v1.TestRefusals).
    @pytest.mark.parametrize(
        "patch,match",
        [
            ({"shape": [4]}, "2D or 3D"),
            ({"shape": "4x4"}, "positive integers"),
            ({"shape": [4, 0]}, "positive integers"),
            ({"payload": [1, 2, 3]}, "expected 128 payload bytes"),
            ({"shape": [4, 5]}, "expected 160 payload bytes"),
            ({"algorithm": ""}, "algorithm"),
            ({"algorithm": 7}, "algorithm"),
            ({"timeout_ms": -5}, "timeout_ms"),
            ({"options": [1]}, "options"),
            ({"options": {"fast": "yes"}}, "fast"),
            ({"form": "seed", "api": 2}, "api version"),
            ({"form": "seed", "session": None}, "session"),
            ({"form": "seed", "session": ""}, "session"),
            ({"form": "seed", "shape": [16]}, "2D or 3D"),
            ({"form": "seed", "payload": [1, 2]}, "payload bytes"),
            ({"form": "seed", "payload": [-1] + [1] * 15}, "non-negative"),
            ({"form": "seed", "algorithm": ""}, "algorithm"),
            ({"form": "delta", "api": 2}, "api version"),
            ({"form": "delta", "delta": None}, "update count"),
            ({"form": "delta", "delta": -1}, "update count"),
            ({"form": "delta", "payload": [1, 2, 3]}, "2-cell delta"),
            ({"form": "delta", "payload": [1, -2, 3, 4]}, "indices"),
            ({"form": "delta", "payload": [1, 2, 3, -4]}, "delta weights"),
            ({"form": "delta", "dtype": "<f8"}, "dtype"),
        ],
    )
    def test_invalid_fields_rejected(self, patch, match):
        frame = _refused_frame(patch)
        decode = (
            decode_color_request if frame.opcode == OP_COLOR
            else decode_recolor_request
        )
        with pytest.raises(ProtocolError, match=match):
            decode(frame)

    def test_negative_weights_rejected(self):
        frame = _refused_frame({"shape": [2, 2], "payload": [1, -1, 1, 1]})
        with pytest.raises(ProtocolError, match="non-negative"):
            decode_color_request(frame)


class TestResultWire:
    def test_ok_result(self):
        starts = np.array([0, 1, 2, 3], dtype=np.int64)
        result = ServedResult(status="ok", starts=starts, maxcolor=7,
                              source="computed", compute_seconds=0.01,
                              batch_size=4)
        frame = decode_frame(encode_result(result, "abc", extra={"total_ms": 3.0}))
        assert frame.opcode == OP_RESPONSE
        message = response_to_message(frame)
        assert message["id"] == "abc"
        assert message["starts"].tolist() == [0, 1, 2, 3]
        assert message["maxcolor"] == 7
        assert message["source"] == "computed"
        assert message["batch_size"] == 4
        assert message["total_ms"] == 3.0

    def test_error_result(self):
        frame = decode_frame(encode_result(
            ServedResult(status="error", error="boom"), "abc"
        ))
        message = response_to_message(frame)
        assert message == {"id": "abc", "status": "error", "error": "boom"}
