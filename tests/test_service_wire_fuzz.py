"""Hypothesis fuzzing of the wire decoders.

Truncated, bit-flipped and oversized input must fail as a
:class:`~repro.service.wire.WireError` subclass — the one error type
the socket readers catch — and never as anything else.
"""

import socket
import struct

from hypothesis import given, settings, strategies as st

from repro.service import wire

FRAME_TYPES = st.sampled_from([wire.HELLO, wire.HELLO_OK,
                               wire.HELLO_REJECT, wire.DATA, wire.CREDIT,
                               wire.HEARTBEAT, wire.BYE])
FUZZ = settings(max_examples=200, deadline=None)

#: Messages shaped like what DATA carries: nested tuples/lists of
#: scalars.  Text stays alphanumeric so a flipped pickle opcode has no
#: module path to resolve.
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=False),
                    st.text(alphabet="abcdefxyz0123456789", max_size=12))
MESSAGES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.tuples(inner, inner)), max_leaves=12)
CONTROL = st.dictionaries(
    st.sampled_from(["role", "run_id", "shard", "generation", "received",
                     "consumed", "reason", "client_id"]),
    st.one_of(st.integers(0, 2 ** 40), st.text(max_size=16)), max_size=6)


def read_bytes(data: bytes):
    """``read_frame`` over a socketpair whose writer sent ``data`` and
    closed; returns the frame or the exception it raised."""
    left, right = socket.socketpair()
    try:
        right.settimeout(2.0)
        left.sendall(data)
        left.close()
        try:
            return wire.read_frame(right)
        except Exception as error:  # noqa: BLE001 - inspected by caller
            return error
    finally:
        left.close()
        right.close()


def flip(data: bytes, bits) -> bytes:
    mutated = bytearray(data)
    for bit in bits:
        mutated[(bit // 8) % len(mutated)] ^= 1 << (bit % 8)
    return bytes(mutated)


def decode_or_wire_error(decode, payload: bytes):
    try:
        return decode(payload)
    except wire.WireError:
        return None


class TestReadFrame:
    @FUZZ
    @given(ftype=FRAME_TYPES, payload=st.binary(max_size=512),
           data=st.data())
    def test_truncation_is_a_wire_error(self, ftype, payload, data):
        frame = wire.encode_frame(ftype, payload)
        cut = data.draw(st.integers(0, len(frame) - 1))
        assert isinstance(read_bytes(frame[:cut]), wire.WireError)

    @FUZZ
    @given(ftype=FRAME_TYPES, payload=st.binary(max_size=512),
           bits=st.lists(st.integers(0, 2 ** 16), min_size=1,
                         max_size=4))
    def test_bit_flips_are_wire_errors(self, ftype, payload, bits):
        frame = wire.encode_frame(ftype, payload)
        mutated = flip(frame, bits)
        result = read_bytes(mutated)
        if mutated == frame:
            assert result == (ftype, payload)
        else:
            assert isinstance(result, wire.WireError)

    @FUZZ
    @given(ftype=FRAME_TYPES,
           length=st.integers(wire.MAX_FRAME_BYTES + 1, 2 ** 32 - 1),
           tail=st.binary(max_size=64))
    def test_oversized_length_is_refused(self, ftype, length, tail):
        header = struct.pack(">4sBBI", wire.MAGIC, wire.WIRE_VERSION,
                             ftype, length)
        assert isinstance(read_bytes(header + tail), wire.WireError)

    def test_previous_wire_version_is_a_version_mismatch(self):
        frame = bytearray(wire.encode_frame(wire.HELLO,
                                            wire.pack_dict({})))
        frame[4] = 1
        assert isinstance(read_bytes(bytes(frame)), wire.VersionMismatch)


class TestPayloadDecoders:
    @FUZZ
    @given(payload=st.binary(max_size=24))
    def test_unpack_count(self, payload):
        value = decode_or_wire_error(wire.unpack_count, payload)
        assert value is None or 0 <= value < 2 ** 64

    @FUZZ
    @given(mapping=CONTROL, cut=st.integers(0, 2 ** 10),
           bits=st.lists(st.integers(0, 2 ** 12), max_size=3))
    def test_unpack_dict(self, mapping, cut, bits):
        payload = wire.pack_dict(mapping)
        assert wire.unpack_dict(payload) == mapping
        mutated = flip(payload, bits)[:cut]
        value = decode_or_wire_error(wire.unpack_dict, mutated)
        assert value is None or isinstance(value, dict)

    @FUZZ
    @given(payload=st.binary(max_size=256))
    def test_unpack_dict_random_bytes(self, payload):
        value = decode_or_wire_error(wire.unpack_dict, payload)
        assert value is None or isinstance(value, dict)

    @FUZZ
    @given(seq=st.integers(0, 2 ** 64 - 1), message=MESSAGES,
           cut=st.integers(0, 2 ** 10),
           bits=st.lists(st.integers(0, 2 ** 12), max_size=3))
    def test_unpack_data(self, seq, message, cut, bits):
        payload = wire.pack_data(seq, message)
        assert wire.unpack_data(payload) == (seq, message)
        decoded = decode_or_wire_error(wire.unpack_data,
                                       flip(payload, bits)[:cut])
        assert decoded is None or len(decoded) == 2

    def test_control_payloads_are_json(self):
        payload = wire.pack_dict({"role": "shard", "shard": 2})
        assert payload == b'{"role":"shard","shard":2}'
