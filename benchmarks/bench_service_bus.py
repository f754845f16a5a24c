"""Bus transport throughput: in-process queues vs TCP.

The SocketBus buys network reach with encoding, framing, CRC, credits,
and heartbeats on every message — this bench prices that overhead
against the in-process queues so the transport choice is a measured
trade, not a guess.  Three sections:

* **raw** — messages/sec through the bare Bus seam (publish →
  endpoint.get → credit) per transport, one producer, one consumer,
  each message an 8-frame ``("frames", FrameBatch)``;
* **fleet** — ShardedEngine frames/sec over the thread vs the socket
  transport on the same synthetic stream, with an output-identity
  assertion between the two;
* **gateway** — frames/sec streaming a capture through the TCP ingest
  gateway (:func:`stream_capture_to`) into a fleet, against the same
  fleet ingesting the file locally, again output-identical.

Run standalone for the JSON report::

    PYTHONPATH=src python benchmarks/bench_service_bus.py \
        --messages 20000 --frames 4000 --json BENCH_service_bus.json
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Iterator, List

from repro.capture import make_capture_writer
from repro.capture.records import FrameBatch, encode_frames
from repro.geometry.point import Point
from repro.knowledge.apdb import ApDatabase, ApRecord
from repro.localization import MLoc
from repro.net80211.frames import probe_response
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid
from repro.service import (FrameIngestServer, QueueBus, ShardConfig,
                           ShardedEngine, SocketBus, stream_capture_to)

AP_GRID = 4             # 16 APs on an 80 m lattice
AP_BASE = 0x001B63000000
MOBILE_BASE = 0x020000000000
MOBILE_COUNT = 24
BUS_CAPACITY = 256
TRANSPORTS = ("thread", "socket")


def build_database() -> ApDatabase:
    return ApDatabase(
        ApRecord(bssid=MacAddress(AP_BASE + i), ssid=Ssid("campus"),
                 location=Point((i % AP_GRID) * 80.0,
                                (i // AP_GRID) * 80.0),
                 max_range_m=120.0)
        for i in range(AP_GRID * AP_GRID))


def generate_stream(frames: int) -> Iterator[ReceivedFrame]:
    """Mobiles cycling through the AP lattice, several sightings each."""
    for index in range(frames):
        ts = index * 0.02
        mobile = MacAddress(MOBILE_BASE + index % MOBILE_COUNT)
        ap = MacAddress(AP_BASE + (index // MOBILE_COUNT)
                        % (AP_GRID * AP_GRID))
        frame = probe_response(ap, mobile, 6, ts, ssid=Ssid("campus"))
        yield ReceivedFrame(frame, rssi_dbm=-60.0 - index % 15,
                            snr_db=20.0, rx_channel=6, rx_timestamp=ts)


# ----------------------------------------------------------------------
# Section 1: the raw Bus seam
# ----------------------------------------------------------------------

def make_bus(transport: str):
    if transport == "thread":
        return QueueBus(1, capacity=BUS_CAPACITY)
    return SocketBus(1, capacity=BUS_CAPACITY)


def bench_raw(transport: str, messages: int, repeats: int) -> dict:
    payload = ("frames", FrameBatch(*encode_frames(
        list(generate_stream(8)))))
    best = None
    for _ in range(repeats):
        bus = make_bus(transport)
        inbox, _ = bus.endpoints(0)
        done = threading.Event()

        def consume():
            for _ in range(messages):
                inbox.get(timeout=60.0)
            done.set()

        consumer = threading.Thread(target=consume, daemon=True)
        start = time.perf_counter()
        consumer.start()
        for _ in range(messages):
            bus.publish(0, payload, timeout=60.0)
        if not done.wait(timeout=120.0):
            raise RuntimeError(f"{transport} consumer never finished")
        wall = time.perf_counter() - start
        consumer.join()
        close = getattr(inbox, "close", None)
        if close is not None:
            close()
        bus.close()
        best = wall if best is None else min(best, wall)
    return {
        "wall_s": best,
        "messages_per_sec": messages / best if best > 0.0 else 0.0,
    }


# ----------------------------------------------------------------------
# Section 2: fleet throughput per transport
# ----------------------------------------------------------------------

def fleet_fixes(engine: ShardedEngine) -> dict:
    return {str(mobile): (ts, estimate.position.x, estimate.position.y)
            for mobile, (ts, estimate) in engine.snapshot().items()}


def bench_fleet(transport: str, frames: List[ReceivedFrame],
                database: ApDatabase, shards: int) -> dict:
    engine = ShardedEngine(
        functools.partial(MLoc, database), shards=shards,
        transport=transport,
        config=ShardConfig(window_s=60.0, batch_size=32),
        publish_batch=64)
    try:
        start = time.perf_counter()
        stats = engine.run(iter(frames))
        wall = time.perf_counter() - start
        fixes = fleet_fixes(engine)
    finally:
        engine.stop()
    return {
        "wall_s": wall,
        "frames_per_sec": (stats.frames_ingested / wall
                           if wall > 0.0 else 0.0),
        "fixes": fixes,
    }


def run_fleet_section(frames: List[ReceivedFrame],
                      database: ApDatabase, shards: int) -> dict:
    thread = bench_fleet("thread", frames, database, shards)
    sock = bench_fleet("socket", frames, database, shards)
    identical = thread.pop("fixes") == sock.pop("fixes")
    return {
        "shards": shards,
        "thread": thread,
        "socket": sock,
        "socket_overhead": (thread["frames_per_sec"]
                            / sock["frames_per_sec"]
                            if sock["frames_per_sec"] > 0.0 else 0.0),
        "outputs_identical": identical,
    }


# ----------------------------------------------------------------------
# Section 3: the TCP ingest gateway vs local file ingest
# ----------------------------------------------------------------------

def run_gateway_section(frames: List[ReceivedFrame],
                        database: ApDatabase, shards: int,
                        workdir: str) -> dict:
    capture_path = Path(workdir) / "bench_service_bus.cap"
    with make_capture_writer(capture_path, format="columnar",
                             block_records=1024) as writer:
        for received in frames:
            writer.write(received)

    local = ShardedEngine(
        functools.partial(MLoc, database), shards=shards,
        config=ShardConfig(window_s=60.0, batch_size=32),
        publish_batch=64)
    try:
        start = time.perf_counter()
        stats = local.run(iter(frames))
        local_wall = time.perf_counter() - start
        local_fixes = fleet_fixes(local)
    finally:
        local.stop()

    remote = ShardedEngine(
        functools.partial(MLoc, database), shards=shards,
        config=ShardConfig(window_s=60.0, batch_size=32),
        publish_batch=64)
    try:
        with FrameIngestServer(remote) as gateway:
            start = time.perf_counter()
            ingest = stream_capture_to(capture_path, gateway.address,
                                       batch_records=128)
            remote_wall = time.perf_counter() - start
        remote_fixes = fleet_fixes(remote)
    finally:
        remote.stop()
    os.unlink(capture_path)
    return {
        "frames": stats.frames_ingested,
        "local": {
            "wall_s": local_wall,
            "frames_per_sec": (stats.frames_ingested / local_wall
                               if local_wall > 0.0 else 0.0),
        },
        "gateway": {
            "wall_s": remote_wall,
            "frames_per_sec": (ingest.frames / remote_wall
                               if remote_wall > 0.0 else 0.0),
            "batches": ingest.batches,
            "reconnects": ingest.reconnects,
        },
        "outputs_identical": local_fixes == remote_fixes,
    }


def run_bench(messages: int, frames: int, shards: int, repeats: int,
              workdir: str) -> dict:
    database = build_database()
    stream = list(generate_stream(frames))
    raw = {transport: bench_raw(transport, messages, repeats)
           for transport in TRANSPORTS}
    fleet = run_fleet_section(stream, database, shards)
    gateway = run_gateway_section(stream, database, shards, workdir)
    return {
        "bench": "service_bus",
        "config": {
            "messages": messages,
            "frames": frames,
            "shards": shards,
            "repeats": repeats,
            "bus_capacity": BUS_CAPACITY,
            # Throughput numbers are hardware-bound; record the cores
            # the committed run actually had.
            "cpu_count": os.cpu_count(),
        },
        "raw": raw,
        "fleet": fleet,
        "gateway": gateway,
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry point (pytest benchmarks/ --benchmark-only)
# ----------------------------------------------------------------------

def test_service_bus_transports(benchmark, reporter, tmp_path):
    report = benchmark(lambda: run_bench(
        messages=5000, frames=2000, shards=2, repeats=1,
        workdir=str(tmp_path)))
    raw = report["raw"]
    reporter("", "=== Bus transports: queue vs TCP ===",
             f"  thread msgs/s : "
             f"{raw['thread']['messages_per_sec']:12.0f}",
             f"  socket msgs/s : "
             f"{raw['socket']['messages_per_sec']:12.0f}",
             f"  fleet identical: {report['fleet']['outputs_identical']}",
             f"  gateway identical: "
             f"{report['gateway']['outputs_identical']}")
    assert report["fleet"]["outputs_identical"]
    assert report["gateway"]["outputs_identical"]


# ----------------------------------------------------------------------
# Standalone JSON mode
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Bus transport throughput: queues vs TCP sockets")
    parser.add_argument("--messages", type=int, default=20000,
                        help="messages for the raw bus section")
    parser.add_argument("--frames", type=int, default=4000,
                        help="frames for the fleet/gateway sections")
    parser.add_argument("--shards", type=int, default=2,
                        help="fleet width")
    parser.add_argument("--repeats", type=int, default=2,
                        help="raw-section repeats (best is reported)")
    parser.add_argument("--json", metavar="FILE",
                        help="write the report as JSON to FILE")
    args = parser.parse_args(argv)

    import tempfile
    with tempfile.TemporaryDirectory() as workdir:
        report = run_bench(args.messages, args.frames, args.shards,
                           args.repeats, workdir)

    raw = report["raw"]
    for transport in TRANSPORTS:
        print(f"raw {transport:7s}: "
              f"{raw[transport]['messages_per_sec']:12.0f} msgs/s")
    fleet = report["fleet"]
    print(f"fleet thread : {fleet['thread']['frames_per_sec']:12.0f} "
          f"frames/s")
    print(f"fleet socket : {fleet['socket']['frames_per_sec']:12.0f} "
          f"frames/s ({fleet['socket_overhead']:.2f}x overhead, "
          f"outputs identical: {fleet['outputs_identical']})")
    gateway = report["gateway"]
    print(f"local ingest : {gateway['local']['frames_per_sec']:12.0f} "
          f"frames/s")
    print(f"gateway      : {gateway['gateway']['frames_per_sec']:12.0f} "
          f"frames/s over TCP in {gateway['gateway']['batches']} "
          f"batches (outputs identical: "
          f"{gateway['outputs_identical']})")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"JSON written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
