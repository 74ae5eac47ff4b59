"""Tests for the length-prefixed JSON frame protocol."""

import asyncio
import json
import struct

import pytest
from hypothesis import given, settings

from repro.errors import ConfigurationError
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_payload,
    denied,
    encode_frame,
    ok,
    read_frame,
)
from tests.service._canonical import AWKWARD, payloads, reference_json


def _reader_with(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


class TestFraming:
    def test_roundtrip(self):
        payload = {"op": "access", "tenant": "t", "n": 3}
        frame = encode_frame(payload)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert decode_payload(frame[4:]) == payload

    def test_equal_dicts_encode_to_equal_bytes(self):
        a = encode_frame({"b": 1, "a": [2, 3]})
        b = encode_frame({"a": [2, 3], "b": 1})
        assert a == b

    def test_oversized_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_frame({"blob": "x" * MAX_FRAME_BYTES})

    def test_non_object_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            decode_payload(json.dumps([1, 2]).encode())

    def test_read_frame_roundtrip(self):
        async def scenario():
            reader = _reader_with(encode_frame({"op": "status"}))
            assert await read_frame(reader) == {"op": "status"}
            assert await read_frame(reader) is None  # clean EOF

        asyncio.run(scenario())

    def test_read_frame_rejects_torn_length_word(self):
        async def scenario():
            with pytest.raises(ConfigurationError):
                await read_frame(_reader_with(b"\x00\x00"))

        asyncio.run(scenario())

    def test_read_frame_rejects_torn_body(self):
        async def scenario():
            frame = encode_frame({"op": "status"})
            with pytest.raises(ConfigurationError):
                await read_frame(_reader_with(frame[:-2]))

        asyncio.run(scenario())

    def test_read_frame_rejects_hostile_length(self):
        async def scenario():
            header = struct.pack(">I", MAX_FRAME_BYTES + 1)
            with pytest.raises(ConfigurationError):
                await read_frame(_reader_with(header))

        asyncio.run(scenario())


class TestCanonicalEncoding:
    """Frame bodies are pinned to the reference encoding, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(payload=payloads)
    def test_frame_body_is_the_reference_encoding(self, payload):
        body = reference_json(payload).encode("utf-8")
        assert encode_frame(payload) == struct.pack(">I", len(body)) + body

    def test_awkward_text_and_numbers(self):
        payload = {AWKWARD: [AWKWARD, 2 ** 70, -(2 ** 65), 1e4 / 3, 1e300],
                   "faults": {"temperature_c": 85.5, "z": {AWKWARD: None}}}
        body = encode_frame(payload)[4:]
        assert body == reference_json(payload).encode("utf-8")
        assert body.isascii()
        assert decode_payload(body) == payload


class TestResponseHelpers:
    def test_ok_carries_status_and_fields(self):
        assert ok(tenant="t") == {"status": "ok", "tenant": "t"}

    def test_denied_carries_code_message_and_fields(self):
        response = denied("busy", "try later", tenant="t")
        assert response == {"status": "busy", "message": "try later",
                            "tenant": "t"}
