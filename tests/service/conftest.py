"""Checks shared by the server and router suites: how a listener treats a
peer that does not speak frames, and one that dies inside a preamble."""

import socket
import time

from repro.service.client import ServiceClient
from repro.service.frames import (
    OP_RESPONSE,
    PREAMBLE_SIZE,
    decode_frame,
    decode_preamble,
)


def _counters(port: int) -> dict:
    with ServiceClient("127.0.0.1", port, timeout=30.0) as client:
        return client.metrics()["counters"]


def _read_until_eof(sock: socket.socket) -> bytes:
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


def assert_non_frame_peer_refused(
    port: int, sent: bytes = b'{"op":"ping"}\n'
) -> None:
    """Bytes that are not a frame (by default a JSON line) get exactly one
    ``invalid`` frame, then EOF, and are counted in ``protocol_errors``."""
    before = _counters(port).get("protocol_errors", 0)
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(sent)
        reply = _read_until_eof(sock)
    frame = decode_frame(reply)
    assert frame.opcode == OP_RESPONSE
    assert frame.header["status"] == "invalid"
    assert "magic" in frame.header["error"]
    *_, header_len, payload_len = decode_preamble(reply[:PREAMBLE_SIZE])
    assert len(reply) == PREAMBLE_SIZE + header_len + payload_len  # then EOF
    assert _counters(port)["protocol_errors"] == before + 1


def assert_preamble_death_counted(port: int) -> None:
    """A peer that sends part of a preamble and hangs up is a torn frame,
    whether it dies inside the magic or after it."""
    for sent in (b"\xa9", b"\xa9\x27\x01\x00\x03"):
        before = _counters(port).get("torn_frames", 0)
        with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
            sock.sendall(sent)
        deadline = time.monotonic() + 10.0
        while _counters(port).get("torn_frames", 0) < before + 1:
            assert time.monotonic() < deadline, f"torn preamble {sent!r} uncounted"
            time.sleep(0.05)
