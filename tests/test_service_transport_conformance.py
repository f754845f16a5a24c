"""One behavioural contract, three transports.

Every Bus implementation — in-process queues, multiprocessing queues,
TCP sockets — must be interchangeable under the router: same
back-pressure, same timeout surface, same reset-after-crash semantics.
The parameterized half of this file pins that contract; the SocketBus
half covers what only a network transport can do wrong (stale
generations, severed connections, silent peers, garbage bytes).
"""

import pickle
import socket
import threading
import time

import pytest

from repro import obs
from repro.service import (BusTimeout, ConnectionLost, MpQueueBus,
                           QueueBus, ShardChannel, SocketBus)
from repro.service import wire

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


@pytest.fixture(params=["thread", "process", "socket"])
def make_bus(request):
    """A factory for one transport; closes every bus it built."""
    built = []

    def factory(shards, capacity=4):
        if request.param == "thread":
            bus = QueueBus(shards, capacity=capacity)
        elif request.param == "process":
            bus = MpQueueBus(shards, capacity=capacity)
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
        bus.publish(1, ("frames", [1, 2, 3]), timeout=5.0)
        assert inbox.get(timeout=5.0) == ("frames", [1, 2, 3])
        outbox.put(("reply", 0, "ok"))
        assert bus.collect(1, timeout=5.0) == ("reply", 0, "ok")

    def test_capacity_one_backpressures_publish(self, make_bus):
        bus = make_bus(1, capacity=1)
        bus.publish(0, ("first",), timeout=5.0)
        with pytest.raises(BusTimeout):
            bus.publish(0, ("second",), timeout=0.1)

    def test_backpressure_releases_when_consumed(self, make_bus):
        bus = make_bus(1, capacity=1)
        inbox, _ = bus.endpoints(0)
        bus.publish(0, ("first",), timeout=5.0)

        def consume_later():
            time.sleep(0.1)
            assert inbox.get(timeout=5.0) == ("first",)

        consumer = threading.Thread(target=consume_later)
        consumer.start()
        try:
            # Blocked until the consumer frees (and acks) the slot.
            bus.publish(0, ("second",), timeout=5.0)
        finally:
            consumer.join()
        assert inbox.get(timeout=5.0) == ("second",)

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
        bus.publish(0, ("stale",), timeout=5.0)
        bus.reset(0)
        new_inbox, new_outbox = bus.endpoints(0)
        assert new_inbox is not old_inbox
        assert new_outbox is not old_outbox
        # The post-reset slot starts clean and works end to end.
        bus.publish(0, ("fresh",), timeout=5.0)
        assert new_inbox.get(timeout=5.0) == ("fresh",)
        new_outbox.put(("ready", 0))
        assert bus.collect(0, timeout=5.0) == ("ready", 0)

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
            inbox.put(("doomed",))
            inbox.get(timeout=5.0)
        assert "stale endpoint generation" in str(excinfo.value)
        assert self.counter(registry, "hello_rejects") >= 1
        inbox.close()

    def test_kill_connection_is_lossless(self, bus, registry):
        channel, _ = bus.endpoints(0)
        bus.publish(0, ("one",), timeout=5.0)
        bus.publish(0, ("two",), timeout=5.0)
        assert channel.get(timeout=5.0) == ("one",)
        assert wait_until(lambda: bus.connected(0))
        assert bus.kill_connection(0)
        # The undelivered tail survives the severed connection ...
        assert channel.get(timeout=10.0) == ("two",)
        # ... and the reverse direction works on the new connection.
        channel.put(("reply", 7))
        assert bus.collect(0, timeout=10.0) == ("reply", 7)
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
        bus.publish(1, ("shipped",), timeout=5.0)
        assert clone.get(timeout=5.0) == ("shipped",)
        clone.put(("pong",))
        assert bus.collect(1, timeout=5.0) == ("pong",)
        clone.close()
        channel.close()

    def test_endpoints_after_reset_carry_the_new_generation(self, bus):
        before, _ = bus.endpoints(0)
        bus.reset(0)
        after, _ = bus.endpoints(0)
        assert after.generation == before.generation + 1

    def test_publish_timeout_message_names_the_shard(self, bus):
        bus.publish(0, ("a",), timeout=5.0)
        bus.publish(0, ("b",), timeout=5.0)
        bus.publish(0, ("c",), timeout=5.0)
        bus.publish(0, ("d",), timeout=5.0)
        with pytest.raises(BusTimeout) as excinfo:
            bus.publish(0, ("e",), timeout=0.05)
        assert "shard 0 inbox full" in str(excinfo.value)

    def test_liveness_knobs_are_validated(self):
        with pytest.raises(ValueError):
            SocketBus(1, heartbeat_s=0.0)
        with pytest.raises(ValueError):
            SocketBus(1, heartbeat_s=1.0, dead_after_s=0.5)
