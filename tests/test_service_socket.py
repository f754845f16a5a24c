"""Socket transports end to end: equivalence, chaos, network ingest.

The service's hard promise — sharded output byte-identical to a single
engine — must hold when the shards talk TCP, when their connections are
severed mid-stream, and when the frames themselves arrive over the
ingest gateway instead of a local file.
"""

import functools
import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.capture import make_capture_writer
from repro.engine import StreamingEngine
from repro.faults import FaultInjector, parse_fault_spec, use_injector
from repro.localization import MLoc
from repro.service import (FrameIngestServer, ServiceError,
                           ServiceServer, ShardConfig, ShardedEngine,
                           TRANSPORTS, stream_capture_to)
from repro.service import wire
from repro.service.socketbus import SocketBus

from tests.test_service_engine import (build_stream, fleet, fleet_fixes,
                                       single_engine_fixes, station)

#: Fast reconnect budget so chaos tests recover in milliseconds.
FAST_SOCKET = {"heartbeat_s": 0.1, "dead_after_s": 0.5,
               "reconnect": {"max_attempts": 5, "base_delay": 0.02,
                             "max_delay": 0.2}}


def wait_connected(engine, timeout=5.0):
    """Block until every shard worker has handshaked with the bus."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(engine.bus.connected(i) for i in range(engine.shards)):
            return
        time.sleep(0.01)
    raise AssertionError("shards never connected to the socket bus")


def socket_fleet(square_db, transport="socket", **kwargs):
    bus = SocketBus(kwargs.get("shards", 3), **FAST_SOCKET)
    return fleet(square_db, transport=transport, bus=bus, **kwargs)


class TestSocketEquivalence:
    def test_socket_transport_is_listed(self):
        assert "socket" in TRANSPORTS
        assert "socket-process" in TRANSPORTS

    def test_socket_fleet_matches_single_engine(self, square_db):
        frames = build_stream(square_db)
        want = single_engine_fixes(square_db, frames)
        with fleet(square_db, transport="socket") as engine:
            engine.ingest_stream(frames)
            engine.drain()
            assert fleet_fixes(engine) == want

    def test_socket_process_fleet_matches_single_engine(self,
                                                        square_db):
        frames = build_stream(square_db, devices=8, rounds=2)
        want = single_engine_fixes(square_db, frames)
        with fleet(square_db, transport="socket-process",
                   shards=2) as engine:
            engine.ingest_stream(frames)
            engine.drain()
            assert fleet_fixes(engine) == want


class TestSocketChaos:
    def test_connection_kill_mid_stream_is_byte_identical(self,
                                                          square_db):
        frames = build_stream(square_db, devices=12, rounds=4)
        want = single_engine_fixes(square_db, frames)
        with socket_fleet(square_db) as engine:
            half = len(frames) // 2
            engine.ingest_stream(frames[:half])
            engine.flush_publishes()
            wait_connected(engine)
            # Sever every shard's TCP connection; the workers stay up
            # and the reconnect machinery must hide the cut entirely.
            killed = [engine.kill_connection(i)
                      for i in range(engine.shards)]
            assert any(killed), "no live connection was severed"
            engine.ingest_stream(frames[half:])
            engine.drain()
            assert fleet_fixes(engine) == want

    def test_shard_kill_over_socket_is_byte_identical(self, square_db,
                                                      tmp_path):
        frames = build_stream(square_db, devices=12, rounds=4)
        want = single_engine_fixes(square_db, frames)
        with socket_fleet(square_db, checkpoint_dir=tmp_path / "ckpt",
                          checkpoint_every=20) as engine:
            half = len(frames) // 2
            engine.ingest_stream(frames[:half])
            engine.kill_shard(1)
            engine.ingest_stream(frames[half:])
            engine.drain()
            assert fleet_fixes(engine) == want
            assert engine._handles[1].restarts == 1

    def test_process_kill_over_socket_process_transport(self, square_db):
        frames = build_stream(square_db, devices=8, rounds=3)
        want = single_engine_fixes(square_db, frames)
        with socket_fleet(square_db, transport="socket-process",
                          shards=2) as engine:
            half = len(frames) // 2
            engine.ingest_stream(frames[:half])
            engine.kill_shard(0)
            engine.ingest_stream(frames[half:])
            engine.drain()
            assert fleet_fixes(engine) == want

    def test_kill_connection_needs_a_socket_transport(self, square_db):
        with fleet(square_db) as engine:
            with pytest.raises(ServiceError) as excinfo:
                engine.kill_connection(0)
            assert "no connections to kill" in str(excinfo.value)


class TestConfigurableTimeouts:
    def test_custom_timeouts_are_accepted(self, square_db):
        frames = build_stream(square_db, devices=4, rounds=1)
        with fleet(square_db, publish_timeout_s=5.0,
                   worker_join_timeout_s=3.0) as engine:
            engine.run(iter(frames))
            assert len(fleet_fixes(engine)) == 4

    def test_timeouts_must_be_positive(self, square_db):
        factory = functools.partial(MLoc, square_db)
        with pytest.raises(ValueError):
            ShardedEngine(factory, publish_timeout_s=0.0)
        with pytest.raises(ValueError):
            ShardedEngine(factory, worker_join_timeout_s=-1.0)


# ----------------------------------------------------------------------
# Network ingest gateway
# ----------------------------------------------------------------------

@pytest.fixture
def capture(square_db, tmp_path):
    frames = build_stream(square_db, devices=10, rounds=3)
    path = tmp_path / "capture.cap"
    with make_capture_writer(path, format="columnar",
                             block_records=64) as writer:
        for received in frames:
            writer.write(received)
    return path, frames


class TestIngestGateway:
    def test_streamed_capture_matches_local_ingest(self, square_db,
                                                   capture):
        path, frames = capture
        want = single_engine_fixes(square_db, frames)
        with fleet(square_db) as engine, \
                FrameIngestServer(engine) as gateway:
            stats = stream_capture_to(path, gateway.address,
                                      batch_records=16)
            engine.drain()
            assert fleet_fixes(engine) == want
        assert stats.frames == len(frames)
        assert stats.batches == (len(frames) + 15) // 16
        assert stats.reconnects == 0
        assert stats.batches_resent == 0

    def test_gateway_over_socket_transport(self, square_db, capture):
        path, frames = capture
        want = single_engine_fixes(square_db, frames)
        with socket_fleet(square_db) as engine, \
                FrameIngestServer(engine) as gateway:
            stream_capture_to(path, gateway.address, batch_records=32)
            engine.drain()
            assert fleet_fixes(engine) == want

    def test_same_client_id_rerun_is_a_noop(self, square_db, capture):
        path, frames = capture
        want = single_engine_fixes(square_db, frames)
        with fleet(square_db) as engine, \
                FrameIngestServer(engine) as gateway:
            first = stream_capture_to(path, gateway.address,
                                      batch_records=16,
                                      client_id="collector-7")
            engine.drain()
            before = engine.stats().frames_ingested
            # The rerun resumes past everything already acked: every
            # batch dedups server-side, nothing reaches the engine.
            stream_capture_to(path, gateway.address, batch_records=16,
                              client_id="collector-7")
            engine.drain()
            assert engine.stats().frames_ingested == before
            assert fleet_fixes(engine) == want
        assert first.frames == len(frames)

    def test_dropped_frames_are_resent_not_lost(self, square_db,
                                                capture):
        path, frames = capture
        want = single_engine_fixes(square_db, frames)
        injector = FaultInjector([
            parse_fault_spec("socket.recv:drop,times=3")])
        with fleet(square_db) as engine, \
                FrameIngestServer(engine) as gateway, \
                use_injector(injector, all_threads=True):
            stats = stream_capture_to(
                path, gateway.address, batch_records=16,
                ack_timeout_s=0.5,
                reconnect={"max_attempts": 8, "base_delay": 0.02,
                           "max_delay": 0.2})
            engine.drain()
            assert fleet_fixes(engine) == want
        assert injector.total_fired == 3
        assert stats.frames == len(frames)

    def test_non_ingest_hello_is_rejected(self, square_db):
        with fleet(square_db, shards=1) as engine, \
                FrameIngestServer(engine) as gateway:
            raw = socket.create_connection(gateway.address, timeout=5.0)
            try:
                wire.send_frame(raw, wire.HELLO, wire.pack_dict(dict(
                    role="shard", shard=0)))
                ftype, payload = wire.read_frame(raw)
                assert ftype == wire.HELLO_REJECT
                assert "client_id" in wire.unpack_dict(payload)["reason"]
            finally:
                raw.close()

    def test_bad_parameters_are_rejected(self, capture):
        path, _ = capture
        with pytest.raises(ValueError):
            stream_capture_to(path, ("127.0.0.1", 1), batch_records=0)
        with pytest.raises(ValueError):
            stream_capture_to(path, ("127.0.0.1", 1), window=0)

    def test_unreachable_gateway_raises_after_retries(self, capture):
        path, _ = capture
        # A port nothing listens on: the retry budget must exhaust
        # into an error, not hang.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()
        probe.close()
        with pytest.raises(OSError):
            stream_capture_to(
                path, dead_address,
                reconnect={"max_attempts": 2, "base_delay": 0.01,
                           "max_delay": 0.02})


# ----------------------------------------------------------------------
# HTTP chaos route
# ----------------------------------------------------------------------

def post(base, path):
    request = urllib.request.Request(base + path, method="POST",
                                     data=b"")
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status, reply.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


class TestHttpKillConnection:
    @pytest.fixture
    def served(self, square_db):
        engine = socket_fleet(square_db, shards=2)
        engine.ingest_stream(build_stream(square_db, devices=4,
                                          rounds=1))
        engine.flush_publishes()
        server = ServiceServer(engine, port=0, allow_chaos=True).start()
        host, port = server.address
        yield engine, f"http://{host}:{port}"
        server.stop()
        engine.stop()

    def test_kill_connection_route(self, served):
        engine, base = served
        status, body = post(base, "/chaos/kill-connection?shard=0")
        assert status == 200
        reply = json.loads(body)
        assert reply["shard"] == 0
        assert reply["killed"] in (True, False)
        # The fleet still serves after the cut.
        assert engine.health()["healthy"]

    def test_kill_connection_requires_shard(self, served):
        _, base = served
        assert post(base, "/chaos/kill-connection")[0] == 400

    def test_kill_connection_range_checked(self, served):
        _, base = served
        assert post(base, "/chaos/kill-connection?shard=9")[0] == 400

    def test_kill_connection_disabled_without_chaos_flag(self,
                                                         square_db):
        with fleet(square_db, shards=1) as engine:
            server = ServiceServer(engine, port=0,
                                   allow_chaos=False).start()
            try:
                host, port = server.address
                status, _ = post(f"http://{host}:{port}",
                                 "/chaos/kill-connection?shard=0")
                assert status == 403
            finally:
                server.stop()

    def test_kill_connection_on_queue_transport_is_503(self, square_db):
        with fleet(square_db, shards=1) as engine:
            server = ServiceServer(engine, port=0,
                                   allow_chaos=True).start()
            try:
                host, port = server.address
                status, body = post(f"http://{host}:{port}",
                                    "/chaos/kill-connection?shard=0")
                assert status == 503
                assert "no connections to kill" in body
            finally:
                server.stop()
