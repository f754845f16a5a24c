"""One behavioural contract, two transports.

Every Bus implementation — in-process queues, TCP sockets — must be
interchangeable under the router: same back-pressure, same timeout
surface, same reset-after-crash semantics, for the typed messages the
router and shards really exchange.  The parameterized half of this
file pins that contract; the SocketBus half covers what only a network
transport can do wrong (stale generations, severed connections, silent
peers, garbage bytes, messages that cannot be encoded).
"""

import pickle
import socket
import threading
import time

import pytest

from repro import obs
from repro.capture.records import FrameBatch, encode_frames
from repro.service import (BusTimeout, ConnectionLost, QueueBus,
                           ShardChannel, SocketBus)
from repro.service import wire

from tests.test_service_wire_fuzz import capture_frame

#: Fast liveness knobs so dead-peer tests finish in well under a second.
FAST = {"heartbeat_s": 0.05, "dead_after_s": 0.2,
        "reconnect": {"max_attempts": 3, "base_delay": 0.02,
                      "max_delay": 0.1}}


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture(params=["thread", "socket"])
def make_bus(request):
    """A factory for one transport; closes every bus it built."""
    built = []

    def factory(shards, capacity=4):
        if request.param == "thread":
            bus = QueueBus(shards, capacity=capacity)
        else:
            bus = SocketBus(shards, capacity=capacity, **FAST)
        built.append(bus)
        return bus

    factory.transport = request.param
    yield factory
    for bus in built:
        bus.close()


class TestBusConformance:
    def test_publish_collect_roundtrip(self, make_bus):
        bus = make_bus(2)
        inbox, outbox = bus.endpoints(1)
        frames = [capture_frame(index) for index in range(6)]
        bus.publish(1, ("frames", FrameBatch(*encode_frames(frames))),
                    timeout=5.0)
        kind, batch = inbox.get(timeout=5.0)
        assert kind == "frames" and list(batch.iter_frames()) == frames
        bus.publish(1, ("request", 3, "locate", "02:00:00:00:00:07"),
                    timeout=5.0)
        assert inbox.get(timeout=5.0) == ("request", 3, "locate",
                                          "02:00:00:00:00:07")
        outbox.put(("reply", 3, {"shard": 1, "fixes": {}}))
        assert bus.collect(1, timeout=5.0) == ("reply", 3, {
            "shard": 1, "fixes": {}})

    def test_capacity_one_backpressures_publish(self, make_bus):
        bus = make_bus(1, capacity=1)
        bus.publish(0, ("checkpoint", 1), timeout=5.0)
        with pytest.raises(BusTimeout):
            bus.publish(0, ("checkpoint", 2), timeout=0.1)

    def test_backpressure_releases_when_consumed(self, make_bus):
        bus = make_bus(1, capacity=1)
        inbox, _ = bus.endpoints(0)
        bus.publish(0, ("checkpoint", 1), timeout=5.0)

        def consume_later():
            time.sleep(0.1)
            assert inbox.get(timeout=5.0) == ("checkpoint", 1)

        consumer = threading.Thread(target=consume_later)
        consumer.start()
        try:
            # Blocked until the consumer frees (and acks) the slot.
            bus.publish(0, ("checkpoint", 2), timeout=5.0)
        finally:
            consumer.join()
        assert inbox.get(timeout=5.0) == ("checkpoint", 2)

    def test_inbox_depth_counts_unconsumed_messages(self, make_bus):
        bus = make_bus(2, capacity=4)
        inbox, _ = bus.endpoints(0)
        assert bus.inbox_depth(0) == 0
        for marker in range(3):
            bus.publish(0, ("checkpoint", marker), timeout=5.0)
        assert (bus.inbox_depth(0), bus.inbox_depth(1)) == (3, 0)
        assert inbox.get(timeout=5.0) == ("checkpoint", 0)
        # Over TCP the router learns of the consumption from the
        # shard's CREDIT, a moment later.
        assert wait_until(lambda: bus.inbox_depth(0) == 2)
        bus.reset(0)
        assert bus.inbox_depth(0) == 0

    def test_collect_times_out_on_a_dead_consumer(self, make_bus):
        bus = make_bus(1)
        with pytest.raises(BusTimeout) as excinfo:
            bus.collect(0, timeout=0.05)
        assert "within 0.05s" in str(excinfo.value)

    def test_nonblocking_collect_message_is_not_nonsense(self, make_bus):
        # The old message rendered "within Nones" for block=False.
        bus = make_bus(1)
        with pytest.raises(BusTimeout) as excinfo:
            bus.collect(0, block=False)
        assert "no message queued from shard 0" in str(excinfo.value)
        assert "None" not in str(excinfo.value)

    def test_reset_gives_fresh_working_endpoints(self, make_bus):
        bus = make_bus(2)
        old_inbox, old_outbox = bus.endpoints(0)
        bus.publish(0, ("checkpoint", 1), timeout=5.0)
        bus.reset(0)
        new_inbox, new_outbox = bus.endpoints(0)
        assert new_inbox is not old_inbox
        assert new_outbox is not old_outbox
        # The post-reset slot starts clean and works end to end.
        bus.publish(0, ("stop",), timeout=5.0)
        assert new_inbox.get(timeout=5.0) == ("stop",)
        new_outbox.put(("ckpt_ack", 0))
        assert bus.collect(0, timeout=5.0) == ("ckpt_ack", 0)

    def test_close_is_idempotent(self, make_bus):
        bus = make_bus(1)
        bus.close()
        bus.close()

    def test_rejects_bad_shapes(self, make_bus):
        with pytest.raises(ValueError):
            make_bus(0)
        with pytest.raises(ValueError):
            make_bus(1, capacity=0)


class TestSocketBusSpecific:
    @pytest.fixture
    def registry(self):
        return obs.MetricsRegistry()

    @pytest.fixture
    def bus(self, registry):
        bus = SocketBus(2, capacity=4, registry=registry, **FAST)
        yield bus
        bus.close()

    def counter(self, registry, name):
        return registry.counter(f"repro.socket.{name}").value

    def test_stale_endpoint_after_reset_dies_visibly(self, bus,
                                                     registry):
        inbox, _ = bus.endpoints(0)
        bus.reset(0)
        # The first put starts the channel, whose HELLO is now stale;
        # the rejection surfaces on whichever call observes it first
        # (put, if the reject lands before it queues).
        with pytest.raises(ConnectionLost) as excinfo:
            inbox.put(("ckpt_ack", 0))
            inbox.get(timeout=5.0)
        assert "stale endpoint generation" in str(excinfo.value)
        assert self.counter(registry, "hello_rejects") >= 1
        inbox.close()

    def test_kill_connection_is_lossless(self, bus, registry):
        channel, _ = bus.endpoints(0)
        bus.publish(0, ("checkpoint", 1), timeout=5.0)
        bus.publish(0, ("checkpoint", 2), timeout=5.0)
        assert channel.get(timeout=5.0) == ("checkpoint", 1)
        assert wait_until(lambda: bus.connected(0))
        assert bus.kill_connection(0)
        # The undelivered tail survives the severed connection ...
        assert channel.get(timeout=10.0) == ("checkpoint", 2)
        # ... and the reverse direction works on the new connection.
        channel.put(("reply", 7, None))
        assert bus.collect(0, timeout=10.0) == ("reply", 7, None)
        assert channel.reconnects >= 1
        assert wait_until(
            lambda: self.counter(registry, "reconnects") >= 1)
        channel.close()

    def test_kill_connection_without_a_peer_reports_false(self, bus):
        assert bus.kill_connection(1) is False

    def test_silent_peer_is_declared_dead(self, bus, registry):
        raw = socket.create_connection(bus.address, timeout=5.0)
        try:
            wire.send_frame(raw, wire.HELLO, wire.pack_dict(dict(
                role="shard", run_id=bus.run_id, shard=0, generation=0,
                received=0, consumed=0)))
            ftype, _ = wire.read_frame(raw)
            assert ftype == wire.HELLO_OK
            assert wait_until(lambda: bus.connected(0))
            # Now go silent: no heartbeats, no data.  The router must
            # notice within dead_after_s and detach.
            assert wait_until(lambda: not bus.connected(0))
            assert self.counter(registry, "heartbeats_missed") >= 1
        finally:
            raw.close()

    def test_garbage_bytes_are_counted_and_dropped(self, bus, registry):
        raw = socket.create_connection(bus.address, timeout=5.0)
        try:
            raw.sendall(b"GET /snapshot HTTP/1.1\r\nHost: x\r\n\r\n")
            assert wait_until(
                lambda: self.counter(registry, "crc_rejects") >= 1)
            assert not bus.connected(0)
        finally:
            raw.close()

    def test_wrong_run_id_is_rejected_at_hello(self, bus, registry):
        raw = socket.create_connection(bus.address, timeout=5.0)
        try:
            wire.send_frame(raw, wire.HELLO, wire.pack_dict(dict(
                role="shard", run_id="someone-elses-fleet", shard=0,
                generation=0)))
            ftype, payload = wire.read_frame(raw)
            assert ftype == wire.HELLO_REJECT
            assert "wrong run" in wire.unpack_dict(payload)["reason"]
            assert self.counter(registry, "hello_rejects") >= 1
        finally:
            raw.close()

    def test_out_of_range_shard_is_rejected(self, bus):
        raw = socket.create_connection(bus.address, timeout=5.0)
        try:
            wire.send_frame(raw, wire.HELLO, wire.pack_dict(dict(
                role="shard", run_id=bus.run_id, shard=99, generation=0)))
            ftype, payload = wire.read_frame(raw)
            assert ftype == wire.HELLO_REJECT
            assert "out of range" in wire.unpack_dict(payload)["reason"]
        finally:
            raw.close()

    def test_channel_pickles_before_first_use(self, bus):
        channel, _ = bus.endpoints(1)
        clone = pickle.loads(pickle.dumps(channel))
        assert isinstance(clone, ShardChannel)
        assert clone.address == channel.address
        assert clone.shard == 1
        assert clone.run_id == bus.run_id
        # The clone is fully functional: it connects and consumes.
        bus.publish(1, ("stop",), timeout=5.0)
        assert clone.get(timeout=5.0) == ("stop",)
        clone.put(("ckpt_ack", 3))
        assert bus.collect(1, timeout=5.0) == ("ckpt_ack", 3)
        clone.close()
        channel.close()

    def test_endpoints_after_reset_carry_the_new_generation(self, bus):
        before, _ = bus.endpoints(0)
        bus.reset(0)
        after, _ = bus.endpoints(0)
        assert after.generation == before.generation + 1

    def test_publish_timeout_message_names_the_shard(self, bus):
        for marker in range(4):
            bus.publish(0, ("checkpoint", marker), timeout=5.0)
        with pytest.raises(BusTimeout) as excinfo:
            bus.publish(0, ("checkpoint", 4), timeout=0.05)
        assert "shard 0 inbox full" in str(excinfo.value)

    def test_unencodable_message_raises_in_publish(self, bus):
        channel, _ = bus.endpoints(0)
        for message in (("frames", [1, 2, 3]), ("reply", 1, object()),
                        ("checkpoint", -1), ("bogus",)):
            with pytest.raises(wire.WireError):
                bus.publish(0, message, timeout=5.0)
        # Nothing was numbered: the next message is the first delivered.
        bus.publish(0, ("checkpoint", 1), timeout=5.0)
        assert channel.get(timeout=5.0) == ("checkpoint", 1)
        channel.close()

    def test_unencodable_message_raises_in_put(self, bus):
        channel, _ = bus.endpoints(0)
        with pytest.raises(wire.WireError):
            channel.put(("reply", 0, {"estimate": object()}))
        channel.put(("ckpt_ack", 2))
        assert bus.collect(0, timeout=5.0) == ("ckpt_ack", 2)
        channel.close()

    def test_liveness_knobs_are_validated(self):
        with pytest.raises(ValueError):
            SocketBus(1, heartbeat_s=0.0)
        with pytest.raises(ValueError):
            SocketBus(1, heartbeat_s=1.0, dead_after_s=0.5)
