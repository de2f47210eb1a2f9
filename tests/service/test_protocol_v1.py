"""Versioned (``"api": 1``) protocol frames: canonical shape, legacy
compatibility, tiled routing, and refusal of unknown versions."""

import numpy as np
import pytest

from repro.service.frames import (
    OP_COLOR,
    Frame,
    decode_color_request,
    decode_frame,
    encode_color_request,
)
from repro.service.protocol import (
    PROTOCOL_API_VERSION,
    ColorRequest,
    ProtocolError,
)


def _weights(shape=(4, 4), seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(1, 50, size=shape, dtype=np.int64)


def _frame(**overrides) -> Frame:
    """A color frame whose header is exactly ``overrides`` over the
    legacy minimum (no ``api``, no ``runtime``)."""
    weights = overrides.pop("weights", _weights())
    header = {
        "op": "color",
        "shape": list(weights.shape),
        "algorithm": overrides.pop("algorithm", "GLL"),
    }
    header.update(overrides)
    return Frame(OP_COLOR, 0, "", header, np.asarray(weights, "<i8").tobytes())


def _header(request: ColorRequest) -> dict:
    return decode_frame(encode_color_request(request)).header


class TestCanonicalFrames:
    def test_encoder_emits_api_version(self):
        header = _header(ColorRequest(weights=_weights(), algorithm="GLL"))
        assert header["api"] == PROTOCOL_API_VERSION
        assert "options" not in header  # legacy vocabulary is not emitted

    def test_round_trip_preserves_runtime_and_tiles(self):
        request = ColorRequest(
            weights=_weights(), algorithm="GLL",
            tiled=True, tile_shape=(2, 2), validate=True,
        )
        frame = decode_frame(encode_color_request(request))
        assert frame.header["runtime"] == "tiled"
        assert frame.header["tiles"] == [2, 2]
        decoded = decode_color_request(frame)
        assert decoded.tiled and decoded.tile_shape == (2, 2)
        assert decoded.validate
        np.testing.assert_array_equal(decoded.weights, request.weights)

    @pytest.mark.parametrize("runtime,fast", [("auto", None),
                                              ("kernels", True),
                                              ("reference", False)])
    def test_runtime_maps_onto_fast(self, runtime, fast):
        decoded = decode_color_request(_frame(api=1, runtime=runtime))
        assert decoded.fast is fast
        assert not decoded.tiled

    def test_fast_round_trips_as_runtime(self):
        frame = decode_frame(encode_color_request(
            ColorRequest(weights=_weights(), algorithm="GLL", fast=True)
        ))
        assert frame.header["runtime"] == "kernels"
        assert decode_color_request(frame).fast is True

    def test_tiles_hint_alone_implies_tiled(self):
        decoded = decode_color_request(_frame(tiles=[2, 2]))
        assert decoded.tiled and decoded.tile_shape == (2, 2)

    def test_cache_key_ignores_the_runtime(self):
        # Bit-identity means tiled and monolithic requests must share
        # content-addressed cache entries.
        weights = _weights(seed=1)
        mono = decode_color_request(_frame(weights=weights, runtime="kernels"))
        tiled = decode_color_request(_frame(weights=weights, runtime="tiled"))
        assert mono.key == tiled.key


class TestLegacyFrames:
    def test_legacy_options_fast_still_decodes(self):
        decoded = decode_color_request(
            _frame(options={"fast": True, "validate": True})
        )
        assert decoded.fast is True and decoded.validate
        assert not decoded.tiled

    def test_canonical_fields_beat_legacy_options(self):
        decoded = decode_color_request(
            _frame(api=1, runtime="reference", validate=False,
                   options={"fast": True, "validate": True})
        )
        assert decoded.fast is False
        assert not decoded.validate


class TestRefusals:
    def test_unknown_api_version_refused(self):
        with pytest.raises(ProtocolError, match="api version"):
            decode_color_request(_frame(api=2))

    def test_unknown_runtime_refused(self):
        with pytest.raises(ProtocolError, match="runtime"):
            decode_color_request(_frame(api=1, runtime="turbo"))

    def test_tiled_non_gll_refused(self):
        with pytest.raises(ProtocolError, match="GLL"):
            decode_color_request(_frame(algorithm="BDP", runtime="tiled"))

    def test_tiles_rank_mismatch_refused(self):
        with pytest.raises(ProtocolError, match="tiles"):
            decode_color_request(_frame(tiles=[2, 2, 2]))  # 2D grid, 3D hint

    def test_tiles_must_be_positive(self):
        with pytest.raises(ProtocolError, match="tiles"):
            decode_color_request(_frame(tiles=[0, 2]))
