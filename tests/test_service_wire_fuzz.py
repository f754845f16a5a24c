"""Hypothesis fuzzing of the wire decoders.

Truncated, bit-flipped, oversized and pickled input must fail as a
:class:`~repro.service.wire.WireError` subclass — the one error type
the socket readers catch — and never as anything else, at the decoder
and at each port that reads DATA: the router's shard port, a shard
channel, and the ingest gateway.
"""

import json
import pickle
import socket
import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.capture.records import (CAPTURE_DTYPE, FRAME_TYPES as KIND_TABLE,
                                   NO_BSSID, FrameBatch, encode_frames)
from repro.net80211.frames import Dot11Frame
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid
from repro.service import (BusTimeout, FrameIngestServer, ShardChannel,
                           SocketBus)
from repro.service import wire

FRAME_TYPES = st.sampled_from([wire.HELLO, wire.HELLO_OK,
                               wire.HELLO_REJECT, wire.DATA, wire.CREDIT,
                               wire.HEARTBEAT, wire.BYE])
FUZZ = settings(max_examples=200, deadline=None)

#: JSON values a reply may carry (lists, string-keyed objects).
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=12)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)
COUNTS = st.integers(0, 2 ** 63)
#: Every JSON bus message kind, router -> shard and shard -> router.
MESSAGES = st.one_of(
    st.tuples(st.just("checkpoint"), COUNTS),
    st.tuples(st.just("ckpt_ack"), COUNTS),
    st.tuples(st.just("request"), COUNTS, st.sampled_from(wire.REQUESTS),
              st.one_of(st.none(), st.text(max_size=17))),
    st.tuples(st.just("reply"), COUNTS, JSON_VALUES),
    st.tuples(st.just("fatal"), st.text(max_size=40)),
    st.just(("stop",)), st.just(("crash",)))
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
        if decoded is not None and decoded[1][0] != "frames":
            # Whatever gets through is a well-formed message again.
            assert wire.unpack_data(wire.pack_data(*decoded)) == decoded

    @FUZZ
    @given(seq=st.integers(0, 2 ** 64 - 1), message=MESSAGES,
           protocol=st.integers(0, pickle.HIGHEST_PROTOCOL))
    def test_pickled_payloads_are_wire_errors(self, seq, message,
                                              protocol):
        body = pickle.dumps(message, protocol=protocol)
        for payload in pickled_payloads(seq, body):
            with pytest.raises(wire.WireError):
                wire.unpack_data(payload)

    def test_shapes_are_checked_per_kind(self):
        for message in (["stop", 1], ["checkpoint"], ["checkpoint", -1],
                        ["checkpoint", True], ["ckpt_ack", 1.5],
                        ["request", 1, "explode", None],
                        ["request", 1, "locate", 7], ["reply", 1],
                        ["fatal", None], ["frames", []], [], {}, "stop"):
            payload = json_payload(message)
            with pytest.raises(wire.WireError):
                wire.unpack_data(payload)

    def test_control_payloads_are_json(self):
        payload = wire.pack_dict({"role": "shard", "shard": 2})
        assert payload == b'{"role":"shard","shard":2}'


def capture_frame(index: int) -> ReceivedFrame:
    """Varied frames: every kind, overflow payloads, non-ASCII SSIDs."""
    ssids = ["campus", "caf\u00e9", "x\x00", ""]
    frame = Dot11Frame(
        frame_type=KIND_TABLE[index % len(KIND_TABLE)],
        source=MacAddress(0x020000000000 + index),
        destination=MacAddress(0x001B63000000 + index % 3),
        channel=1 + index % 11, timestamp=float(index),
        ssid=Ssid(ssids[index % len(ssids)]),
        bssid=None if index % 5 == 0 else MacAddress(0x001B63000000),
        elements={"vendor": str(index)} if index % 3 == 0 else {})
    return ReceivedFrame(frame, -60.0 - index, 20.0, 6, float(index))


FRAMES = st.lists(st.integers(0, 40).map(capture_frame), max_size=12)


def rows_payload(frames, seq=1, mutate=None, aux_extra=b""):
    """A frames DATA payload, built by hand so ``mutate`` can break
    the rows in ways ``pack_data`` refuses to."""
    rows, aux = encode_frames(frames)
    if mutate is not None:
        mutate(rows)
    body = rows.astype(CAPTURE_DTYPE.newbyteorder("<")).tobytes()
    aux += aux_extra
    return struct.pack(">QBII", seq, 0, len(body), len(aux)) + body + aux


def json_payload(message, seq=1):
    return struct.pack(">QB", seq, 1) + json.dumps(message).encode()


def pickled_payloads(seq, body):
    """A pickle bare, behind the v3 bus DATA header (a u64 sequence
    number), and behind each v4 body tag."""
    return [body, struct.pack(">Q", seq) + body,
            struct.pack(">QB", seq, 0) + body,
            struct.pack(">QB", seq, 1) + body]


def frames_message(frames):
    return ("frames", FrameBatch(*encode_frames(frames)))


class TestRowPayloads:
    @FUZZ
    @given(seq=st.integers(0, 2 ** 64 - 1), frames=FRAMES,
           cut=st.integers(0, 2 ** 12),
           bits=st.lists(st.integers(0, 2 ** 14), max_size=3))
    def test_unpack_rows(self, seq, frames, cut, bits):
        payload = wire.pack_data(seq, frames_message(frames))
        assert payload == rows_payload(frames, seq)
        got_seq, (kind, batch) = wire.unpack_data(payload)
        assert got_seq == seq and kind == "frames"
        assert list(batch.iter_frames()) == frames
        decoded = decode_or_wire_error(wire.unpack_data,
                                       flip(payload, bits)[:cut])
        if decoded is not None and decoded[1][0] == "frames":
            # Whatever gets through decodes, row by row.
            list(decoded[1][1].iter_frames())

    def test_empty_batch_roundtrips(self):
        seq, (kind, batch) = wire.unpack_data(rows_payload([], seq=9))
        assert seq == 9 and kind == "frames" and len(batch) == 0

    def reject(self, payload, match=None):
        with pytest.raises(wire.WireError, match=match):
            wire.unpack_data(payload)

    def test_length_mismatch(self):
        payload = rows_payload([capture_frame(1)])
        self.reject(payload + b"x", "does not hold")
        self.reject(payload[:-1], "does not hold")
        self.reject(payload[:10], "too short")

    def test_partial_row(self):
        payload = struct.pack(">QBII", 1, 0, 120, 0) + bytes(120)
        self.reject(payload, "whole number")

    def test_unknown_kind_code(self):
        def mutate(rows):
            rows["kind"][0] = len(KIND_TABLE)
        self.reject(rows_payload([capture_frame(1)], mutate=mutate),
                    "unknown frame-type code")

    def test_aux_slice_outside_the_blob(self):
        def mutate(rows):
            rows["aux_off"][0] = 2
            rows["aux_len"][0] = 64
        self.reject(rows_payload([capture_frame(1)], mutate=mutate,
                                 aux_extra=b"{}"), "out of range")

    def test_mac_outside_48_bits(self):
        def wide_src(rows):
            rows["src"][0] = 1 << 48

        def wide_bssid(rows):
            rows["bssid"][0] = NO_BSSID - 1

        for mutate in (wide_src, wide_bssid):
            self.reject(rows_payload([capture_frame(1)], mutate=mutate),
                        "out of range")

    def test_undecodable_ssid_and_aux(self):
        def bad_ssid(rows):
            rows["ssid"][0] = b"\xff\xfe"

        def bad_aux(rows):
            rows["aux_off"][0] = 0
            rows["aux_len"][0] = 5

        self.reject(rows_payload([capture_frame(1)], mutate=bad_ssid),
                    "SSID")
        self.reject(rows_payload([capture_frame(1)], mutate=bad_aux,
                                 aux_extra=b"nope!"), "aux")

    def test_a_pickled_payload_is_rejected(self):
        frames = [capture_frame(i) for i in range(4)]
        for message in (frames_message(frames), ("frames", [])):
            for payload in pickled_payloads(3, pickle.dumps(message)):
                self.reject(payload)

    def test_only_a_frame_batch_packs_as_rows(self):
        for message in (("frames", [capture_frame(1)]), ("frames",),
                        ("frames", frames_message([])[1], 1)):
            with pytest.raises(wire.WireError, match="one FrameBatch"):
                wire.pack_data(1, message)

    def test_pack_rows_remaps_a_foreign_kind_table(self):
        frames = [capture_frame(i) for i in range(8)]
        rows, aux = encode_frames(frames)
        rows["kind"] = len(KIND_TABLE) - 1 - rows["kind"]
        payload = wire.pack_data(1, ("frames", FrameBatch(
            rows, aux, tuple(reversed(KIND_TABLE)))))
        batch = wire.unpack_data(payload)[1][1]
        assert list(batch.iter_frames()) == frames


#: Bad DATA payloads every port must refuse: pickles of a real message
#: and malformed codec payloads.
BAD_PAYLOADS = dict(zip(
    ["pickle", "v3-pickle", "pickle-as-rows", "pickle-as-json"],
    pickled_payloads(1, pickle.dumps(frames_message([capture_frame(1)])))),
    empty=b"", unknown_tag=struct.pack(">QB", 1, 7),
    bad_shape=json_payload(["stop", 1]),
    json_frames=json_payload(["frames", []]),
    short_rows=rows_payload([capture_frame(1)])[:-1])


@pytest.fixture
def decode_errors(monkeypatch):
    """Every exception ``wire.unpack_data`` raised, in order."""
    errors = []
    unpack = wire.unpack_data

    def spy(payload):
        try:
            return unpack(payload)
        except Exception as error:
            errors.append(error)
            raise

    monkeypatch.setattr(wire, "unpack_data", spy)
    return errors


def closed_by_peer(sock, timeout=5.0) -> bool:
    """Read frames until the peer closes (True) or ``timeout`` passes."""
    sock.settimeout(timeout)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            wire.read_frame(sock)
        except wire.WireError:
            return True
    return False


def hello(sock, **fields):
    wire.send_frame(sock, wire.HELLO, wire.pack_dict(fields))
    ftype, _ = wire.read_frame(sock)
    assert ftype == wire.HELLO_OK


@pytest.mark.parametrize("payload", list(BAD_PAYLOADS.values()),
                         ids=list(BAD_PAYLOADS))
class TestDataPorts:
    """A bad DATA payload closes the connection it came on with a
    :class:`~repro.service.wire.WireError` and delivers nothing."""

    def test_router_port(self, payload, decode_errors):
        bus = SocketBus(1, heartbeat_s=1.0, dead_after_s=5.0)
        raw = socket.create_connection(bus.address, timeout=5.0)
        try:
            hello(raw, role="shard", run_id=bus.run_id, shard=0,
                  generation=0)
            wire.send_frame(raw, wire.DATA, payload)
            assert closed_by_peer(raw)
            assert [type(error) for error in decode_errors] == [
                wire.WireError]
            with pytest.raises(BusTimeout):
                bus.collect(0, block=False)
        finally:
            raw.close()
            bus.close()

    def test_shard_channel(self, payload, decode_errors):
        listener = socket.create_server(("127.0.0.1", 0))
        channel = ShardChannel(listener.getsockname()[:2], shard=0,
                               run_id="run", generation=0,
                               connect_timeout_s=0.5)
        try:
            with pytest.raises(BusTimeout):
                channel.get(block=False)  # starts the channel
            listener.settimeout(5.0)
            raw, _ = listener.accept()
            with raw:
                wire.read_hello(raw, timeout=5.0)
                wire.send_frame(raw, wire.HELLO_OK,
                                wire.pack_dict({"received": 0}))
                wire.send_frame(raw, wire.DATA, payload)
                assert closed_by_peer(raw)
            assert [type(error) for error in decode_errors] == [
                wire.WireError]
            with pytest.raises(BusTimeout):
                channel.get(timeout=0.05)
        finally:
            channel.close()
            listener.close()

    def test_ingest_port(self, payload, decode_errors):
        engine = RecordingEngine()
        with FrameIngestServer(engine) as server:
            raw = socket.create_connection(server.address, timeout=5.0)
            with raw:
                hello(raw, role="ingest", client_id="fuzz")
                wire.send_frame(raw, wire.DATA, payload)
                assert closed_by_peer(raw)
        assert [type(error) for error in decode_errors] == [wire.WireError]
        assert engine.batches == []


class RecordingEngine:
    def __init__(self):
        self.batches = []

    def ingest_batch(self, batch):
        self.batches.append(batch)


@pytest.mark.parametrize("message", [("stop",), ("checkpoint", 1),
                                     ("reply", 0, None)])
def test_ingest_port_admits_frames_only(message):
    engine = RecordingEngine()
    with FrameIngestServer(engine) as server:
        raw = socket.create_connection(server.address, timeout=5.0)
        with raw:
            hello(raw, role="ingest", client_id="fuzz")
            wire.send_frame(raw, wire.DATA, wire.pack_data(1, message))
            assert closed_by_peer(raw)
    assert engine.batches == []
