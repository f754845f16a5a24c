"""Bus transport tests: queue semantics, back-pressure, reset."""

import threading

import pytest

from repro.service import Bus, BusTimeout, QueueBus


class TestQueueBus:
    def test_publish_collect_roundtrip(self):
        bus = QueueBus(2)
        inbox, outbox = bus.endpoints(1)
        bus.publish(1, ("frames", [1, 2, 3]))
        assert inbox.get() == ("frames", [1, 2, 3])
        outbox.put(("reply", 0, "ok"))
        assert bus.collect(1) == ("reply", 0, "ok")

    def test_shards_are_isolated(self):
        bus = QueueBus(3)
        bus.publish(0, ("a",))
        bus.publish(2, ("b",))
        assert bus.endpoints(0)[0].get() == ("a",)
        assert bus.endpoints(2)[0].get() == ("b",)
        with pytest.raises(BusTimeout):
            bus.collect(1, block=False)

    def test_collect_timeout_raises(self):
        bus = QueueBus(1)
        with pytest.raises(BusTimeout):
            bus.collect(0, timeout=0.01)

    def test_publish_timeout_on_full_inbox(self):
        bus = QueueBus(1, capacity=2)
        bus.publish(0, ("x",))
        bus.publish(0, ("y",))
        with pytest.raises(BusTimeout):
            bus.publish(0, ("z",), timeout=0.01)

    def test_bounded_inbox_backpressures_until_consumed(self):
        bus = QueueBus(1, capacity=1)
        bus.publish(0, ("first",))
        released = threading.Event()

        def consume_later():
            released.wait(timeout=5.0)
            bus.endpoints(0)[0].get()

        consumer = threading.Thread(target=consume_later)
        consumer.start()
        released.set()
        # Blocks until the consumer frees a slot, then succeeds.
        bus.publish(0, ("second",), timeout=5.0)
        consumer.join()
        assert bus.endpoints(0)[0].get() == ("second",)

    def test_reset_replaces_endpoints(self):
        bus = QueueBus(2)
        old_inbox, old_outbox = bus.endpoints(0)
        bus.publish(0, ("stale",))
        bus.reset(0)
        new_inbox, new_outbox = bus.endpoints(0)
        assert new_inbox is not old_inbox
        assert new_outbox is not old_outbox
        # The fresh inbox holds nothing from before the crash.
        assert new_inbox.qsize() == 0
        # The untouched shard keeps its endpoints.
        assert bus.endpoints(1)[0] is bus.endpoints(1)[0]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            QueueBus(0)
        with pytest.raises(ValueError):
            QueueBus(1, capacity=0)


class TestBusSeam:
    def test_base_bus_requires_a_transport(self):
        bus = Bus(1)
        with pytest.raises(NotImplementedError):
            bus.publish(0, ("stop",))
        with pytest.raises(NotImplementedError):
            bus.endpoints(0)
