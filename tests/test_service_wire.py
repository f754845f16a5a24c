"""Wire-protocol unit tests: framing, CRC, handshake, fault seams.

The socket transports trust :mod:`repro.service.wire` to turn every
byte-level failure — truncation, corruption, version skew, mid-message
disconnects — into one typed :class:`WireError` before any payload is
decoded.  These tests drive the codec over real socketpairs.
"""

import socket
import struct
import threading

import pytest

from repro.faults import (DROPPED, FaultInjector, ReproError,
                          parse_fault_spec, use_injector)
from repro.service import wire


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def recv_in_thread(sock):
    """Run read_frame in a thread so the writer side can act freely."""
    box = {}

    def reader():
        try:
            box["frame"] = wire.read_frame(sock)
        except Exception as error:  # noqa: BLE001 - surfaced to test
            box["error"] = error

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    return thread, box


class TestFraming:
    def test_roundtrip_every_frame_type(self, pair):
        left, right = pair
        for ftype in (wire.HELLO, wire.HELLO_OK, wire.HELLO_REJECT,
                      wire.DATA, wire.CREDIT, wire.HEARTBEAT, wire.BYE):
            wire.send_frame(left, ftype, b"payload-%d" % ftype)
            assert wire.read_frame(right) == (ftype,
                                              b"payload-%d" % ftype)

    def test_empty_payload_roundtrip(self, pair):
        left, right = pair
        wire.send_frame(left, wire.BYE)
        assert wire.read_frame(right) == (wire.BYE, b"")

    def test_clean_eof_is_connection_lost(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(wire.ConnectionLost):
            wire.read_frame(right)

    def test_truncated_header_is_truncated_frame(self, pair):
        left, right = pair
        left.sendall(wire.encode_frame(wire.DATA, b"x" * 64)[:3])
        left.close()
        with pytest.raises(wire.TruncatedFrame):
            wire.read_frame(right)

    def test_mid_message_disconnect_is_truncated_frame(self, pair):
        # The header arrives whole and promises a payload the peer
        # dies before delivering — the mid-message disconnect case.
        left, right = pair
        frame = wire.encode_frame(wire.DATA, b"y" * 1024)
        left.sendall(frame[:len(frame) // 2])
        left.close()
        with pytest.raises(wire.TruncatedFrame):
            wire.read_frame(right)

    def test_bad_crc_is_crc_mismatch(self, pair):
        left, right = pair
        frame = bytearray(wire.encode_frame(wire.DATA, b"sensitive"))
        frame[-6] ^= 0x40  # flip one payload bit; CRC no longer matches
        left.sendall(bytes(frame))
        with pytest.raises(wire.CrcMismatch):
            wire.read_frame(right)

    def test_version_mismatch(self, pair):
        left, right = pair
        frame = bytearray(wire.encode_frame(wire.DATA, b"z"))
        frame[4] = wire.WIRE_VERSION + 1
        left.sendall(bytes(frame))
        with pytest.raises(wire.VersionMismatch):
            wire.read_frame(right)

    def test_bad_magic(self, pair):
        left, right = pair
        frame = bytearray(wire.encode_frame(wire.DATA, b"z"))
        frame[0:4] = b"HTTP"
        left.sendall(bytes(frame))
        with pytest.raises(wire.BadMagic):
            wire.read_frame(right)

    def test_insane_length_rejected_before_allocation(self, pair):
        left, right = pair
        header = struct.pack(">4sBBI", wire.MAGIC, wire.WIRE_VERSION,
                             wire.DATA, wire.MAX_FRAME_BYTES + 1)
        left.sendall(header)
        with pytest.raises(wire.WireError):
            wire.read_frame(right)

    def test_oversized_payload_refused_at_encode_time(self):
        with pytest.raises(ValueError):
            wire.encode_frame(wire.DATA,
                              b"\0" * (wire.MAX_FRAME_BYTES + 1))


class TestPayloadHelpers:
    def test_data_roundtrip(self):
        seq, message = wire.unpack_data(
            wire.pack_data(7, ("request", 2, "locate", "02:00:00:00:00:01")))
        assert seq == 7
        assert message == ("request", 2, "locate", "02:00:00:00:00:01")

    def test_data_too_short(self):
        with pytest.raises(wire.WireError):
            wire.unpack_data(b"\0\0")

    def test_count_roundtrip(self):
        assert wire.unpack_count(wire.pack_count(2 ** 40)) == 2 ** 40

    def test_count_wrong_size(self):
        with pytest.raises(wire.WireError):
            wire.unpack_count(b"\0" * 7)

    def test_dict_roundtrip(self):
        payload = wire.pack_dict({"run_id": "abc", "shard": 3})
        assert wire.unpack_dict(payload) == {"run_id": "abc", "shard": 3}

    def test_dict_rejects_non_dict(self):
        import pickle
        with pytest.raises(wire.WireError):
            wire.unpack_dict(pickle.dumps([1, 2]))

    def test_dict_rejects_garbage(self):
        with pytest.raises(wire.WireError):
            wire.unpack_dict(b"\xff\xfe not a pickle")


class TestHello:
    def test_hello_roundtrip(self, pair):
        left, right = pair
        wire.send_frame(left, wire.HELLO,
                        wire.pack_dict(dict(run_id="r", shard=1)))
        assert wire.read_hello(right, timeout=5.0) == {"run_id": "r",
                                                       "shard": 1}

    def test_non_hello_first_frame_rejected(self, pair):
        left, right = pair
        wire.send_frame(left, wire.DATA, wire.pack_data(1, ("stop",)))
        with pytest.raises(wire.WireError):
            wire.read_hello(right, timeout=5.0)

    def test_silent_peer_times_out_as_connection_lost(self, pair):
        _, right = pair
        with pytest.raises(wire.ConnectionLost):
            wire.read_hello(right, timeout=0.05)

    def test_hello_rejected_is_not_a_wire_error(self):
        # The reconnect retry filter is (WireError, OSError): a peer's
        # explicit rejection must escape it instead of being retried.
        assert not issubclass(wire.HelloRejected, wire.WireError)
        assert issubclass(wire.HelloRejected, ReproError)


class TestFaultSeams:
    def test_send_drop_swallows_the_frame(self, pair):
        left, right = pair
        injector = FaultInjector(
            [parse_fault_spec("socket.send:drop,times=1")])
        with use_injector(injector):
            wire.send_frame(left, wire.DATA, b"lost")
            wire.send_frame(left, wire.DATA, b"kept")
        assert wire.read_frame(right) == (wire.DATA, b"kept")
        assert injector.total_fired == 1

    def test_recv_drop_skips_to_the_next_frame(self, pair):
        left, right = pair
        wire.send_frame(left, wire.DATA, b"first")
        wire.send_frame(left, wire.DATA, b"second")
        injector = FaultInjector(
            [parse_fault_spec("socket.recv:drop,times=1")])
        with use_injector(injector):
            assert wire.read_frame(right) == (wire.DATA, b"second")
        assert injector.total_fired == 1

    def test_global_injector_reaches_other_threads(self, pair):
        # The socket transports read frames on internal threads; the
        # all_threads injector must be visible there.
        left, right = pair
        injector = FaultInjector(
            [parse_fault_spec("socket.recv:drop,times=1")])
        with use_injector(injector, all_threads=True):
            thread, box = recv_in_thread(right)
            wire.send_frame(left, wire.DATA, b"dropped")
            wire.send_frame(left, wire.DATA, b"seen")
            thread.join(timeout=5)
        assert box.get("frame") == (wire.DATA, b"seen")
        assert injector.total_fired == 1

    def test_dropped_sentinel_never_leaks(self, pair):
        left, right = pair
        injector = FaultInjector(
            [parse_fault_spec("socket.send:drop,times=1")])
        with use_injector(injector):
            assert wire.send_frame(left, wire.BYE) is None
        right.setblocking(False)
        with pytest.raises(BlockingIOError):
            right.recv(1)

    def test_dropped_is_a_distinct_sentinel(self):
        assert DROPPED is not None
