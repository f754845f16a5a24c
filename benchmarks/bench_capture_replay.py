"""Capture replay throughput: columnar block store vs legacy JSONL.

The ingest hot path for every downstream consumer is capture replay.
This bench writes one synthetic campus capture (mixed probe/response/
data/beacon traffic with device locality) in *both* capture formats
and measures:

* **sequential** — records/sec through ``iter_capture`` (JSONL vs
  columnar, the record-at-a-time seam) and through
  ``iter_capture_batches`` over the columnar capture (the batch seam:
  one order-and-decode check, then owned row slices, no per-record
  decode);
* **selective** — one device's records only, where the columnar
  reader's per-block bloom filters skip whole blocks
  (``repro.capture.blocks_skipped``) and JSONL must decode everything;
* **engine** — ``StreamingEngine.run`` vs ``run_batches`` over the
  same capture prefix, asserting identical estimates.

Devices move through the capture with temporal locality (a device is
active in one contiguous slice of the week), so block skipping reflects
the real campaign shape rather than a best case.

Run standalone for the JSON report (the tier-1 smoke test does)::

    PYTHONPATH=src python benchmarks/bench_capture_replay.py \
        --records 20000 --json out.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import islice
from pathlib import Path
from typing import Iterator

from repro import obs
from repro.capture import make_capture_writer
from repro.engine import StreamingEngine, make_sink
from repro.geometry.point import Point
from repro.knowledge.apdb import ApDatabase, ApRecord
from repro.localization import MLoc
from repro.net80211.frames import Dot11Frame, FrameType
from repro.net80211.mac import BROADCAST_MAC, MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid
from repro.sniffer.replay import iter_capture, iter_capture_batches

AP_GRID = 12            # 144 APs
AP_BASE = 0x001B63000000
MOBILE_BASE = 0x020000000000
MOBILE_COUNT = 2000
RECORD_PERIOD_S = 0.02  # 50 records/sec of captured traffic


def _ap(index: int) -> MacAddress:
    return MacAddress(AP_BASE + index % (AP_GRID * AP_GRID))


def generate_stream(records: int) -> Iterator[ReceivedFrame]:
    """A deterministic campus-like stream with device locality.

    Device ``d`` is active only in slice ``d`` of the capture, cycling
    through the APs near its slice — so any single device's records
    cluster in a few columnar blocks and the rest are bloom-skippable.
    """
    for index in range(records):
        ts = index * RECORD_PERIOD_S
        mobile = MacAddress(
            MOBILE_BASE + (index * MOBILE_COUNT) // records)
        ap = _ap(index // 7)
        mix = index % 10
        if mix < 3:
            frame = Dot11Frame(
                frame_type=FrameType.PROBE_REQUEST, source=mobile,
                destination=BROADCAST_MAC, channel=6, timestamp=ts,
                ssid=Ssid("campus"), sequence=index & 0xFFF)
        elif mix < 7:
            frame = Dot11Frame(
                frame_type=FrameType.PROBE_RESPONSE, source=ap,
                destination=mobile, channel=6, timestamp=ts,
                ssid=Ssid("campus"), bssid=ap, sequence=index & 0xFFF)
        elif mix < 9:
            frame = Dot11Frame(
                frame_type=FrameType.DATA, source=mobile,
                destination=ap, channel=6, timestamp=ts,
                ssid=Ssid(""), bssid=ap, sequence=index & 0xFFF)
        else:
            frame = Dot11Frame(
                frame_type=FrameType.BEACON, source=ap,
                destination=BROADCAST_MAC, channel=6, timestamp=ts,
                ssid=Ssid("campus"), bssid=ap, sequence=index & 0xFFF)
        yield ReceivedFrame(frame=frame, rssi_dbm=-55.0, snr_db=18.0,
                            rx_channel=6, rx_timestamp=ts)


def write_corpus(records: int, jsonl_path: str, columnar_path: str,
                 block_records: int) -> dict:
    """Write the identical stream to both formats in one pass."""
    start = time.perf_counter()
    with make_capture_writer(jsonl_path, format="jsonl") as jw, \
            make_capture_writer(columnar_path, format="columnar",
                                block_records=block_records) as cw:
        for received in generate_stream(records):
            jw.write(received)
            cw.write(received)
    return {
        "records": records,
        "write_wall_s": time.perf_counter() - start,
        "jsonl_bytes": os.path.getsize(jsonl_path),
        "columnar_bytes": os.path.getsize(columnar_path),
    }


def _timed_replay(iterator: Iterator, batched: bool) -> dict:
    start = time.perf_counter()
    if batched:
        count = sum(len(batch) for batch in iterator)
    else:
        count = sum(1 for _ in iterator)
    elapsed = time.perf_counter() - start
    return {
        "records": count,
        "wall_s": elapsed,
        "records_per_sec": count / elapsed if elapsed > 0.0 else 0.0,
    }


def run_sequential(jsonl_path: str, columnar_path: str,
                   repeats: int) -> dict:
    """Full-capture replay, records/sec per seam (best of N)."""
    modes = {
        "jsonl_records": lambda: _timed_replay(
            iter_capture(jsonl_path), batched=False),
        "columnar_records": lambda: _timed_replay(
            iter_capture(columnar_path), batched=False),
        "columnar_batches": lambda: _timed_replay(
            iter_capture_batches(columnar_path), batched=True),
    }
    report = {}
    for label, run in modes.items():
        report[label] = max((run() for _ in range(repeats)),
                            key=lambda r: r["records_per_sec"])
    baseline = report["jsonl_records"]["records_per_sec"]
    for label in ("columnar_records", "columnar_batches"):
        report[f"{label}_speedup"] = (
            report[label]["records_per_sec"] / baseline
            if baseline > 0.0 else 0.0)
    return report


def run_selective(jsonl_path: str, columnar_path: str,
                  repeats: int) -> dict:
    """One device's records only: bloom-gated vs decode-everything."""
    device = str(MacAddress(MOBILE_BASE + MOBILE_COUNT // 2))
    report = {"device": device}
    for label, path in (("jsonl", jsonl_path),
                        ("columnar", columnar_path)):
        best = None
        for _ in range(repeats):
            registry = obs.MetricsRegistry()
            with obs.use_registry(registry):
                timing = _timed_replay(
                    iter_capture_batches(path, device=device),
                    batched=True)
            timing["blocks_skipped"] = int(
                registry.counter("repro.capture.blocks_skipped").value)
            timing["blocks_read"] = int(
                registry.counter("repro.capture.blocks_read").value)
            if best is None or (timing["records_per_sec"]
                                > best["records_per_sec"]):
                best = timing
        report[label] = best
    jsonl_wall = report["jsonl"]["wall_s"]
    columnar_wall = report["columnar"]["wall_s"]
    report["speedup"] = (jsonl_wall / columnar_wall
                         if columnar_wall > 0.0 else 0.0)
    assert report["jsonl"]["records"] == report["columnar"]["records"], (
        "selective replay disagrees between formats")
    return report


def build_database() -> ApDatabase:
    return ApDatabase(
        ApRecord(bssid=_ap(index), ssid=Ssid("campus"),
                 location=Point((index % AP_GRID) * 100.0,
                                (index // AP_GRID) * 100.0),
                 max_range_m=140.0)
        for index in range(AP_GRID * AP_GRID))


def run_engine_section(columnar_path: str, frames: int) -> dict:
    """Record-path vs batch-path engine ingest over the same prefix.

    The capture prefix is bounded (``frames``) so the bench's engine
    section stays a throughput probe, not a full campaign.
    """
    database = build_database()

    def fixes_of(engine):
        sink = engine.sinks[0]
        return {str(mobile): (ts, est.position.x, est.position.y)
                for mobile, (ts, est) in sink.fixes.items()}

    engine_records = StreamingEngine(
        MLoc(database), window_s=600.0, batch_size=32,
        sinks=[make_sink("latest")])
    start = time.perf_counter()
    engine_records.run(islice(iter_capture(columnar_path), frames))
    records_wall = time.perf_counter() - start

    def bounded_batches() -> Iterator:
        remaining = frames
        for batch in iter_capture_batches(columnar_path):
            if remaining <= 0:
                return
            if len(batch) > remaining:
                from repro.capture import FrameBatch
                batch = FrameBatch(batch.records[:remaining], batch.aux,
                                   batch.frame_types)
            remaining -= len(batch)
            yield batch

    engine_batches = StreamingEngine(
        MLoc(database), window_s=600.0, batch_size=32,
        sinks=[make_sink("latest")])
    start = time.perf_counter()
    engine_batches.run_batches(bounded_batches())
    batches_wall = time.perf_counter() - start

    stats_r = engine_records.stats()
    stats_b = engine_batches.stats()
    identical = (stats_r.frames_ingested == stats_b.frames_ingested
                 and stats_r.estimates_emitted == stats_b.estimates_emitted
                 and fixes_of(engine_records) == fixes_of(engine_batches))
    assert identical, "batch-path engine output diverged from record path"
    return {
        "frames": stats_r.frames_ingested,
        "estimates": stats_r.estimates_emitted,
        "record_path": {
            "wall_s": records_wall,
            "frames_per_sec": (stats_r.frames_ingested / records_wall
                               if records_wall > 0.0 else 0.0),
        },
        "batch_path": {
            "wall_s": batches_wall,
            "frames_per_sec": (stats_b.frames_ingested / batches_wall
                               if batches_wall > 0.0 else 0.0),
        },
        "speedup": (records_wall / batches_wall
                    if batches_wall > 0.0 else 0.0),
        "outputs_identical": identical,
    }


def run_bench(records: int, block_records: int, engine_frames: int,
              repeats: int, workdir: str) -> dict:
    jsonl_path = str(Path(workdir) / "bench_capture.jsonl")
    columnar_path = str(Path(workdir) / "bench_capture.cap")
    corpus = write_corpus(records, jsonl_path, columnar_path,
                          block_records)
    sequential = run_sequential(jsonl_path, columnar_path, repeats)
    selective = run_selective(jsonl_path, columnar_path, repeats)
    engine = run_engine_section(columnar_path,
                                min(engine_frames, records))
    report = {
        "bench": "capture_replay",
        "config": {
            "records": records,
            "block_records": block_records,
            "engine_frames": min(engine_frames, records),
            "repeats": repeats,
            "mobiles": MOBILE_COUNT,
            "aps": AP_GRID * AP_GRID,
            # Throughput numbers are hardware-bound; record the cores
            # the committed run actually had.
            "cpu_count": os.cpu_count(),
        },
        "corpus": corpus,
        "sequential": sequential,
        "selective": selective,
        "engine": engine,
    }
    os.unlink(jsonl_path)
    os.unlink(columnar_path)
    return report


# ----------------------------------------------------------------------
# pytest-benchmark entry point (pytest benchmarks/ --benchmark-only)
# ----------------------------------------------------------------------

def test_capture_replay_columnar_speedup(benchmark, reporter, tmp_path):
    report = benchmark(lambda: run_bench(
        records=20000, block_records=2048, engine_frames=5000,
        repeats=1, workdir=str(tmp_path)))
    seq = report["sequential"]
    reporter("", "=== Capture replay: columnar vs JSONL ===",
             f"  jsonl records/s    : "
             f"{seq['jsonl_records']['records_per_sec']:12.0f}",
             f"  columnar records/s : "
             f"{seq['columnar_records']['records_per_sec']:12.0f} "
             f"({seq['columnar_records_speedup']:.1f}x)",
             f"  columnar batches/s : "
             f"{seq['columnar_batches']['records_per_sec']:12.0f} "
             f"({seq['columnar_batches_speedup']:.1f}x)",
             f"  selective skipped  : "
             f"{report['selective']['columnar']['blocks_skipped']} of "
             f"{report['selective']['columnar']['blocks_skipped'] + report['selective']['columnar']['blocks_read']} blocks")
    assert seq["columnar_batches_speedup"] > 1.0
    assert report["engine"]["outputs_identical"]


# ----------------------------------------------------------------------
# Standalone JSON mode (the tier-1 smoke invocation)
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Capture replay throughput, columnar vs JSONL")
    parser.add_argument("--records", type=int, default=1_000_000,
                        help="capture records to generate")
    parser.add_argument("--block-records", type=int, default=65536,
                        help="rows per columnar block")
    parser.add_argument("--engine-frames", type=int, default=40_000,
                        help="capture prefix for the engine section")
    parser.add_argument("--repeats", type=int, default=1,
                        help="replays per mode (best is reported)")
    parser.add_argument("--workdir", default=None,
                        help="directory for the generated capture "
                             "files (default: a temp dir)")
    parser.add_argument("--json", metavar="FILE",
                        help="write the report as JSON to FILE")
    args = parser.parse_args(argv)

    import tempfile
    if args.workdir is not None:
        report = run_bench(args.records, args.block_records,
                           args.engine_frames, args.repeats,
                           args.workdir)
    else:
        with tempfile.TemporaryDirectory() as workdir:
            report = run_bench(args.records, args.block_records,
                               args.engine_frames, args.repeats, workdir)

    corpus, seq = report["corpus"], report["sequential"]
    print(f"records={corpus['records']} "
          f"jsonl={corpus['jsonl_bytes'] / 1e6:.1f}MB "
          f"columnar={corpus['columnar_bytes'] / 1e6:.1f}MB")
    print(f"jsonl  records path : "
          f"{seq['jsonl_records']['records_per_sec']:12.0f} rec/s")
    print(f"columnar record path: "
          f"{seq['columnar_records']['records_per_sec']:12.0f} rec/s "
          f"({seq['columnar_records_speedup']:.1f}x)")
    print(f"columnar batch path : "
          f"{seq['columnar_batches']['records_per_sec']:12.0f} rec/s "
          f"({seq['columnar_batches_speedup']:.1f}x)")
    sel = report["selective"]
    print(f"selective replay ({sel['device']}): "
          f"{sel['speedup']:.1f}x, "
          f"{sel['columnar']['blocks_skipped']} blocks skipped / "
          f"{sel['columnar']['blocks_read']} read "
          f"({sel['columnar']['records']} records)")
    eng = report["engine"]
    print(f"engine record path  : "
          f"{eng['record_path']['frames_per_sec']:12.0f} frames/s")
    print(f"engine batch path   : "
          f"{eng['batch_path']['frames_per_sec']:12.0f} frames/s "
          f"({eng['speedup']:.1f}x, outputs identical: "
          f"{eng['outputs_identical']})")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"JSON written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
