"""The exactly-once stream (``repro.service.stream``) and its sites.

A hypothesis state machine drives one :class:`Outbound` into one
:class:`Inbound` across a connection that loses frames, reorders acks,
drops and resumes, and checks that the receiver sees every message
exactly once and in order.  The link-level tests cover what each site
adds on top: the gateway client's give-up rule and a reader that
survives an undecodable DATA payload.
"""

import socket
import time

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.capture import make_capture_writer
from repro.service import (FrameIngestServer, SocketBus, WireError,
                           stream_capture_to, wire)
from repro.service.stream import Inbound, Outbound

from tests.test_service_engine import build_stream, fleet, fleet_fixes
from tests.test_service_engine import single_engine_fixes


class StreamMachine(RuleBasedStateMachine):
    """Sender and receiver joined by a lossy, droppable connection.

    ``link`` holds the DATA frames in flight (None while disconnected);
    ``acks`` holds cumulative acks in flight, delivered in any order.
    The receiver acks what it has *consumed*, which may lag what it
    received, as the shard end of the socket bus does.
    """

    def __init__(self):
        super().__init__()
        self.pushed = []
        self.delivered = []
        self.out = Outbound()
        self.inb = Inbound(self.delivered.append)
        self.consumed = 0
        self.link = []
        self.acks = []

    @rule(message=st.integers())
    def push(self, message):
        self.out.push(message)
        self.pushed.append(message)

    @precondition(lambda self: self.link is not None
                  and self.out.has_unsent())
    @rule(count=st.integers(1, 4))
    def send(self, count):
        for seq, message in self.out.unsent()[:count]:
            self.link.append((seq, message))
            self.out.mark_sent(seq)

    @precondition(lambda self: self.link)
    @rule()
    def receive(self):
        seq, message = self.link.pop(0)
        try:
            self.inb.accept(seq, message)
        except wire.ConnectionLost:
            self.drop()

    @precondition(lambda self: self.link)
    @rule(index=st.integers(0, 64))
    def lose_frame(self, index):
        del self.link[index % len(self.link)]

    @precondition(lambda self: self.link is not None)
    @rule(count=st.integers(0, 3))
    def consume(self, count):
        self.consumed = min(self.inb.received, self.consumed + count)
        self.acks.append(self.consumed)

    @precondition(lambda self: self.acks)
    @rule(index=st.integers(0, 64))
    def deliver_ack(self, index):
        self.out.ack(self.acks.pop(index % len(self.acks)))

    @precondition(lambda self: self.link is not None)
    @rule()
    def drop(self):
        self.link = None
        self.acks = []

    @precondition(lambda self: self.link is None)
    @rule()
    def reconnect(self):
        # The handshake carries the receiver's cumulative counters.
        self.out.ack(self.consumed)
        self.out.resume(self.inb.received)
        self.link = []

    @invariant()
    def delivered_in_order_exactly_once(self):
        assert self.delivered == self.pushed[:len(self.delivered)]
        assert self.inb.received == len(self.delivered)

    @invariant()
    def retains_exactly_the_unacked_tail(self):
        assert [seq for seq, _ in self.out.retained] == list(
            range(self.out.acked + 1, self.out.seq + 1))

    def teardown(self):
        # A frame lost with nothing behind it leaves no gap to notice;
        # the sites then drop the connection when acks stop coming (an
        # ack timeout, a dead peer).  One such resume and a loss-free
        # send must deliver everything that was pushed.
        if self.link is not None:
            self.drop()
        self.reconnect()
        self.send(len(self.pushed))
        while self.link:
            self.receive()
        assert self.delivered == self.pushed


TestStreamMachine = StreamMachine.TestCase
TestStreamMachine.settings = settings(max_examples=150,
                                      stateful_step_count=40,
                                      deadline=None)


class TestHalves:
    def test_rerun_past_the_peer_count_retains_nothing(self):
        # A resumed client id: the peer already holds 3 messages.
        out = Outbound()
        out.ack(3)
        assert out.resume(3) == 0
        for message in "abc":
            out.push(message)
        assert not out.retained and not out.has_unsent()
        out.push("d")
        assert out.unsent() == [(4, "d")]

    def test_resume_counts_the_resent_tail(self):
        out = Outbound()
        for message in "abcd":
            out.push(message)
        for seq, _ in out.unsent():
            out.mark_sent(seq)
        out.ack(1)
        assert out.resume(2) == 2
        assert out.unsent() == [(3, "c"), (4, "d")]

    def test_failed_delivery_is_retried_on_resend(self):
        calls = []

        def deliver(message):
            calls.append(message)
            if len(calls) == 1:
                raise RuntimeError("engine down")

        inb = Inbound(deliver)
        with pytest.raises(RuntimeError):
            inb.accept(1, "a")
        assert inb.received == 0
        assert inb.accept(1, "a") and inb.received == 1
        assert not inb.accept(1, "a")
        with pytest.raises(wire.ConnectionLost):
            inb.accept(3, "c")


# ----------------------------------------------------------------------
# Sites
# ----------------------------------------------------------------------

def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class FlakyEngine:
    """A gateway engine whose first ``failures`` ingests raise."""

    def __init__(self, inner, failures):
        self.inner = inner
        self.failures = failures
        self.registry = inner.registry

    def ingest_batch(self, batch):
        if self.failures:
            self.failures -= 1
            raise RuntimeError("engine down")
        self.inner.ingest_batch(batch)

    def drain(self):
        return self.inner.drain()


@pytest.fixture
def capture(square_db, tmp_path):
    frames = build_stream(square_db, devices=6, rounds=2)
    path = tmp_path / "capture.cap"
    with make_capture_writer(path, format="columnar",
                             block_records=64) as writer:
        for received in frames:
            writer.write(received)
    return path, frames


FAST_RECONNECT = {"max_attempts": 3, "base_delay": 0.01,
                  "max_delay": 0.05}


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
class TestGatewayGivesUp:
    def test_client_fails_when_the_server_never_acks(self, square_db,
                                                     capture):
        path, _ = capture
        with fleet(square_db, shards=1) as engine, \
                FrameIngestServer(FlakyEngine(engine, 10 ** 6)) as gateway:
            started = time.monotonic()
            with pytest.raises(WireError) as excinfo:
                stream_capture_to(path, gateway.address, batch_records=8,
                                  reconnect=FAST_RECONNECT,
                                  ack_timeout_s=0.5)
            assert time.monotonic() - started < 5.0
            assert "acked nothing over 3 consecutive" in str(excinfo.value)
            assert engine.stats().frames_ingested == 0

    def test_failures_within_the_budget_still_deliver_once(self,
                                                           square_db,
                                                           capture):
        path, frames = capture
        want = single_engine_fixes(square_db, frames)
        with fleet(square_db, shards=2) as engine, \
                FrameIngestServer(FlakyEngine(engine, 2)) as gateway:
            stats = stream_capture_to(path, gateway.address,
                                      batch_records=8,
                                      reconnect=FAST_RECONNECT,
                                      ack_timeout_s=0.5)
            engine.drain()
            assert engine.stats().frames_ingested == len(frames)
            assert fleet_fixes(engine) == want
        assert stats.reconnects == 2


class TestUndecodableData:
    def test_garbage_data_detaches_before_dead_after(self):
        bus = SocketBus(1, heartbeat_s=1.0, dead_after_s=5.0)
        raw = socket.create_connection(bus.address, timeout=5.0)
        try:
            wire.send_frame(raw, wire.HELLO, wire.pack_dict(dict(
                role="shard", run_id=bus.run_id, shard=0, generation=0)))
            assert wire.read_frame(raw)[0] == wire.HELLO_OK
            assert wait_until(lambda: bus.connected(0))
            # CRC-valid framing around a pickle-like payload rejects.
            wire.send_frame(raw, wire.DATA,
                            wire.pack_count(1) + b"\x80\x05 not a pickle")
            started = time.monotonic()
            assert wait_until(lambda: not bus.connected(0), timeout=2.0)
            assert time.monotonic() - started < bus.dead_after_s / 2
        finally:
            raw.close()
            bus.close()
