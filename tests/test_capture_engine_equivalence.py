"""Cross-format engine equivalence: JSONL vs columnar, record vs batch.

The acceptance bar for the columnar store is byte-identical engine
output — same checkpoints (minus volatile metrics), same estimates —
whichever codec the capture sits in and whichever replay seam feeds
the engine.
"""

import functools
import json
import random

import pytest

from repro import obs
from repro.capture import (ColumnarWriter, FrameBatch, convert_capture,
                           encode_frames, make_capture_writer)
from repro.faults import CaptureError
from repro.engine import (GammaState, StreamingEngine, TrackerSink,
                          load_checkpoint_data, make_sink)
from repro.geometry.point import Point
from repro.knowledge.apdb import ApDatabase, ApRecord
from repro.localization import MLoc
from repro.localization.base import fix_record
from repro.net80211.frames import (
    Dot11Frame,
    FrameType,
    beacon,
    probe_request,
    probe_response,
)
from repro.net80211.mac import BROADCAST_MAC, MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid
from repro.obs import MetricsRegistry
from repro.service import (FrameIngestServer, ShardConfig, ShardedEngine,
                           stream_capture_to, wire)
from repro.engine import core as engine_core
from repro.engine.ingest import classify_rows
from repro.service import core as service_core
from repro.sniffer import replay
from repro.sniffer.replay import iter_capture, iter_capture_batches

GRID = 4


def ap_mac(index):
    return MacAddress(0x001B63000000 + index)


def mobile_mac(index):
    return MacAddress(0x020000000000 + index)


def build_database():
    return ApDatabase(
        ApRecord(bssid=ap_mac(i), ssid=Ssid("campus"),
                 location=Point((i % GRID) * 80.0, (i // GRID) * 80.0),
                 max_range_m=120.0)
        for i in range(GRID * GRID))


def generate_records(count=600):
    records = []
    for i in range(count):
        ts = i * 0.05
        m = mobile_mac(i % 7)
        ap = ap_mac((i // 3) % (GRID * GRID))
        mix = i % 5
        if mix == 0:
            frame = probe_request(m, channel=6, timestamp=ts,
                                  ssid=Ssid("campus"))
        elif mix in (1, 2):
            frame = probe_response(ap, m, channel=6, timestamp=ts,
                                   ssid=Ssid("campus"))
        elif mix == 3:
            frame = Dot11Frame(frame_type=FrameType.DATA, source=m,
                               destination=ap, channel=6, timestamp=ts,
                               ssid=Ssid(""), bssid=ap)
        else:
            frame = beacon(ap, channel=6, timestamp=ts,
                           ssid=Ssid("campus"))
        records.append(ReceivedFrame(frame, -60.0 - (i % 15), 20.0, 6, ts))
    return records


def write_capture(path, fmt, records, **options):
    with make_capture_writer(path, format=fmt, **options) as writer:
        for record in records:
            writer.write(record)


def emitted_tracks(sink):
    """Every fix a :class:`TrackerSink` received, as fix records."""
    tracker = sink.tracker
    return {str(mobile): [fix_record(point.timestamp, point.estimate)
                          for point in tracker.track_of(mobile)]
            for mobile in tracker.devices()}


def stripped_checkpoint(engine):
    """Engine checkpoint minus its metrics, plus every fix the engine
    emitted (its second sink, a :class:`TrackerSink`)."""
    state = engine.checkpoint()
    state.pop("metrics")
    state["emitted"] = emitted_tracks(engine.sinks[1])
    return json.dumps(state, sort_keys=True, default=str)


def fresh_engine():
    return StreamingEngine(MLoc(build_database()), window_s=120.0,
                           batch_size=8,
                           sinks=[make_sink("latest"), TrackerSink()])


def run_records(path):
    engine = fresh_engine()
    engine.run(iter_capture(path))
    return engine


def run_batched(path, **options):
    engine = fresh_engine()
    engine.run_batches(iter_capture_batches(path, **options))
    return engine


@pytest.fixture(scope="module")
def captures(tmp_path_factory):
    root = tmp_path_factory.mktemp("captures")
    records = generate_records()
    jsonl = root / "capture.jsonl"
    columnar = root / "capture.cap"
    write_capture(jsonl, "jsonl", records)
    write_capture(columnar, "columnar", records, block_records=64)
    return {"jsonl": jsonl, "columnar": columnar, "records": records}


class TestCheckpointEquivalence:
    def test_jsonl_vs_columnar_record_path(self, captures):
        a = run_records(captures["jsonl"])
        b = run_records(captures["columnar"])
        assert stripped_checkpoint(a) == stripped_checkpoint(b)

    def test_record_vs_batch_path(self, captures):
        a = run_records(captures["columnar"])
        b = run_batched(captures["columnar"])
        assert stripped_checkpoint(a) == stripped_checkpoint(b)

    def test_batch_path_both_formats(self, captures):
        a = run_batched(captures["jsonl"])
        b = run_batched(captures["columnar"])
        assert stripped_checkpoint(a) == stripped_checkpoint(b)

    def test_batch_size_does_not_change_output(self, captures):
        a = run_batched(captures["columnar"], batch_records=17)
        b = run_batched(captures["columnar"], batch_records=256)
        assert stripped_checkpoint(a) == stripped_checkpoint(b)

    def test_converted_capture_equivalent(self, captures, tmp_path):
        converted = tmp_path / "converted.cap"
        convert_capture(captures["jsonl"], converted, block_records=50)
        a = run_records(captures["jsonl"])
        b = run_batched(converted)
        assert stripped_checkpoint(a) == stripped_checkpoint(b)

    def test_estimates_and_stats_match(self, captures):
        a = run_records(captures["jsonl"])
        b = run_batched(captures["columnar"])
        sa, sb = a.stats(), b.stats()
        assert sa.frames_ingested == sb.frames_ingested
        assert sa.probe_requests == sb.probe_requests
        assert sa.evidence_events == sb.evidence_events
        assert sa.estimates_emitted == sb.estimates_emitted
        fixes_a = a.sinks[0].fixes
        fixes_b = b.sinks[0].fixes
        assert set(fixes_a) == set(fixes_b)
        for mobile, (ts, est) in fixes_a.items():
            ts_b, est_b = fixes_b[mobile]
            assert ts == ts_b
            assert est.position == est_b.position


class TestShardedEngine:
    def _sharded(self):
        return ShardedEngine(lambda: MLoc(build_database()), shards=3)

    def test_batch_ingest_matches_record_ingest(self, captures):
        a, b = self._sharded(), self._sharded()
        try:
            for received in iter_capture(captures["columnar"]):
                a.ingest(received)
            stats_a = a.drain()
            b.ingest_batches(iter_capture_batches(captures["columnar"]))
            stats_b = b.drain()
            assert stats_a.frames_ingested == stats_b.frames_ingested
            assert stats_a.estimates_emitted == stats_b.estimates_emitted
            assert a.snapshot().keys() == b.snapshot().keys()
        finally:
            a.stop()
            b.stop()

    def test_gateway_rows_are_checked_once(self, captures, monkeypatch):
        # The wire codec checks what reaches the gateway; the router
        # does not check it again.
        counts = {"wire": 0, "router": 0}

        def counting(site, check):
            def counted(*args, **kwargs):
                counts[site] += 1
                return check(*args, **kwargs)
            return counted

        monkeypatch.setattr(wire, "check_rows",
                            counting("wire", wire.check_rows))
        monkeypatch.setattr(service_core, "check_rows",
                            counting("router", service_core.check_rows))
        engine = self._sharded()
        try:
            with FrameIngestServer(engine) as gateway:
                stream_capture_to(captures["columnar"], gateway.address,
                                  batch_records=64)
            assert engine.drain().frames_ingested == len(
                captures["records"])
        finally:
            engine.stop()
        assert counts["wire"] > 0
        assert counts["router"] == 0

    def test_hand_built_batches_are_checked(self, captures, monkeypatch):
        calls = []
        check = service_core.check_rows

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(service_core, "check_rows", counted)
        engine = self._sharded()
        try:
            for start in range(0, 64, 16):
                engine.ingest_batch(FrameBatch(*encode_frames(
                    captures["records"][start:start + 16])))
            assert len(calls) == 4
        finally:
            engine.stop()

    def test_malformed_row_fails_in_the_caller(self, captures):
        rows, aux = encode_frames(captures["records"][:8])
        rows["ssid"][5] = b"\xff"
        engine = self._sharded()
        try:
            with pytest.raises(CaptureError, match="record 5"):
                engine.ingest_batch(FrameBatch(rows, aux))
            assert engine.drain().frames_ingested == 0
        finally:
            engine.stop()


def linker_state(engine):
    """What the pseudonym linker learned: groups and per-MAC prints."""
    linker = engine.linker
    return (linker.linked_groups(),
            [linker.fingerprint_of(mobile_mac(i)) for i in range(7)])


def batches_of(frames, size):
    return [FrameBatch(*encode_frames(frames[start:start + size]))
            for start in range(0, len(frames), size)]


class TestSingleEngineBatchPath:
    """``ingest_batch`` on one engine against the record path."""

    def test_shuffled_stream_matches_record_path(self):
        frames = shuffled_within_windows(generate_records())
        probes = [index for index, received in enumerate(frames)
                  if received.frame.frame_type is FrameType.PROBE_REQUEST]
        # Wildcard and per-device SSIDs, and one that only the aux blob
        # can hold (a trailing NUL).
        for index, ssid in zip(probes, ["cafe\x00", "", "home", "lab"]):
            frame = frames[index].frame
            frames[index] = ReceivedFrame(
                probe_request(frame.source, 6, frame.timestamp,
                              ssid=Ssid(ssid)),
                -60.0, 20.0, 6, frames[index].rx_timestamp)
        record = fresh_engine()
        record.run(iter(frames))
        batched = fresh_engine()
        batched.run_batches(batches_of(frames, 37))
        assert stripped_checkpoint(record) == stripped_checkpoint(batched)
        assert record.sinks[0].fixes.keys() == batched.sinks[0].fixes.keys()
        for mobile, (ts, estimate) in record.sinks[0].fixes.items():
            assert batched.sinks[0].fixes[mobile][0] == ts
            assert batched.sinks[0].fixes[mobile][1].position == \
                estimate.position
        assert linker_state(record) == linker_state(batched)

    def test_flush_due_before_the_batch_runs_first(self):
        # A restored engine whose dirty set is already a full batch: the
        # record path flushes it after the first frame, a beacon, before
        # the evidence that follows changes any Γ.
        frames = generate_records()
        head = fresh_engine()
        head.ingest_stream(frames[:299])
        data = json.loads(json.dumps(head.checkpoint()))
        assert data["dirty"]
        data["config"]["batch_size"] = 1
        tail = [frames[299]] + frames[301:]
        assert frames[299].frame.frame_type is FrameType.BEACON
        assert frames[301].frame.frame_type is FrameType.PROBE_RESPONSE

        def restored():
            return StreamingEngine.restore(
                json.loads(json.dumps(data)), MLoc(build_database()),
                sinks=[make_sink("latest"), TrackerSink()])

        record, batched = restored(), restored()
        record.ingest_stream(tail)
        batched.ingest_batch(FrameBatch(*encode_frames(tail)))
        assert stripped_checkpoint(record) == stripped_checkpoint(batched)

    def test_malformed_probe_row_leaves_the_engine_untouched(self,
                                                             captures):
        rows, aux = encode_frames(captures["records"][:8])
        assert captures["records"][5].frame.frame_type is \
            FrameType.PROBE_REQUEST
        rows["ssid"][5] = b"\xff"
        engine = fresh_engine()
        before = json.dumps(engine.checkpoint(), sort_keys=True)
        with pytest.raises(CaptureError, match="record 5"):
            engine.ingest_batch(FrameBatch(rows, aux))
        assert json.dumps(engine.checkpoint(), sort_keys=True) == before
        assert engine.stats().frames_ingested == 0

    def test_out_of_range_evidence_mac_leaves_the_engine_untouched(
            self, captures):
        # The 4th evidence row of 40 carries a BSSID past 48 bits.
        rows, aux = encode_frames(captures["records"][:40])
        _, evidence, _ = classify_rows(FrameBatch(rows, aux))
        assert int(evidence.sum()) == 24
        row = int(evidence.nonzero()[0][3])
        rows["bssid"][row] = 2 ** 48 + 5
        engine = fresh_engine()
        before = json.dumps(engine.checkpoint(), sort_keys=True)
        with pytest.raises(CaptureError, match=f"record {row}"):
            engine.ingest_batch(FrameBatch(rows, aux))
        assert json.dumps(engine.checkpoint(), sort_keys=True) == before
        stats = engine.stats()
        assert stats.frames_ingested == 0
        assert stats.evidence_events == 0

    def test_gamma_observed_once_per_gamma_change(self, monkeypatch):
        # Every device stays inside the window for the whole stream, so
        # the batch path folds exactly the rows that change a Γ on the
        # record path and raises the rest in bulk.
        observe = GammaState.observe
        changed = []

        def counted(self, evidence):
            before = self.gamma(evidence.mobile)
            gamma = observe(self, evidence)
            changed.append(gamma is not before)
            return gamma

        monkeypatch.setattr(GammaState, "observe", counted)
        record = fresh_engine()
        record.run(iter(generate_records()))
        changes = sum(changed)
        changed.clear()
        batched = fresh_engine()
        batched.run_batches(batches_of(generate_records(), 128))
        assert all(changed)
        assert len(changed) == changes < batched.stats().evidence_events

    def test_gateway_rows_are_not_checked_again(self, captures,
                                                monkeypatch):
        calls = []
        check = engine_core.check_rows

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(engine_core, "check_rows", counted)
        engine = fresh_engine()
        with FrameIngestServer(engine) as gateway:
            stream_capture_to(captures["columnar"], gateway.address,
                              batch_records=64)
        assert engine.stats().frames_ingested == len(captures["records"])
        assert calls == []
        engine.ingest_batch(FrameBatch(*encode_frames(
            captures["records"][:16])))
        assert len(calls) == 1

    def test_replayed_columnar_slices_are_checked_once(self, captures,
                                                      monkeypatch):
        # Choosing the row-slice path checks every row once; the
        # engine does not check the slices again.  JSONL batches are
        # not checked on the way in, so the engine checks each one.
        counts = {"replay": 0, "engine": 0}

        def counting(site, check):
            def counted(*args, **kwargs):
                counts[site] += 1
                return check(*args, **kwargs)
            return counted

        monkeypatch.setattr(replay, "check_rows",
                            counting("replay", replay.check_rows))
        monkeypatch.setattr(engine_core, "check_rows",
                            counting("engine", engine_core.check_rows))
        batches = -(-len(captures["records"]) // 64)
        engine = run_batched(captures["columnar"], batch_records=64)
        assert engine.stats().frames_ingested == len(captures["records"])
        assert counts == {"replay": batches, "engine": 0}
        counts.update(replay=0, engine=0)
        run_batched(captures["jsonl"], batch_records=64)
        assert counts == {"replay": 0, "engine": batches}

    def test_malformed_columnar_row_raises_through_the_fallback(
            self, captures, tmp_path):
        rows, aux = encode_frames(captures["records"])
        assert captures["records"][200].frame.frame_type is \
            FrameType.PROBE_REQUEST
        rows["ssid"][200] = b"\xff"
        path = tmp_path / "malformed.cap"
        with ColumnarWriter(path, block_records=64) as writer:
            writer.write_rows(rows, aux)
        registry = MetricsRegistry()
        checked = []
        with obs.use_registry(registry), \
                pytest.raises(CaptureError, match="undecodable SSID"):
            for batch in iter_capture_batches(path, batch_records=64,
                                              reorder_buffer=0):
                checked.append(batch.checked)
        assert checked == [False] * 3
        assert registry.snapshot()["counters"][
            "repro.sniffer.replay.fallbacks"] == 3
        with pytest.raises(CaptureError, match="undecodable SSID"):
            run_batched(path, batch_records=64)

    @pytest.mark.parametrize("rows", [64, 1024])
    def test_metric_lookups_do_not_scale_with_rows(self, monkeypatch,
                                                   rows):
        lookup = MetricsRegistry._lookup
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(args[1])
            return lookup(self, *args, **kwargs)

        # One batch that flushes nothing: every lookup is ingest's own.
        engine = StreamingEngine(MLoc(build_database()),
                                 batch_size=10_000)
        batch = FrameBatch(*encode_frames(generate_records(rows)))
        monkeypatch.setattr(MetricsRegistry, "_lookup", counted)
        engine.ingest_batch(batch)
        assert engine.stats().frames_ingested == rows
        assert calls == ["repro.engine.stage.duration"]


def swapped_nearby(records, swaps=46, reach=40, seed=5):
    """``records`` with ``swaps`` pairs swapped, each pair fewer than
    ``reach`` positions apart: the local disorder of a capture merged
    from several cards, well inside ``iter_capture``'s reorder buffer.
    """
    rng = random.Random(seed)
    swapped = list(records)
    for _ in range(swaps):
        first = rng.randrange(len(swapped) - reach)
        second = first + rng.randrange(1, reach)
        swapped[first], swapped[second] = swapped[second], swapped[first]
    return swapped


def fixes_of(engine):
    return {str(mobile): (ts, estimate.position)
            for mobile, (ts, estimate) in engine.sinks[0].fixes.items()}


class TestOutOfOrderCapture:
    """A capture locally out of order, within the reorder buffer: batch
    replay feeds the engine what the record path feeds it, whichever
    format holds the capture and however it is cut."""

    @pytest.fixture(scope="class")
    def swapped(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("swapped")
        records = swapped_nearby(generate_records())
        stamps = [received.rx_timestamp for received in records]
        assert stamps != sorted(stamps)
        paths = {"jsonl": root / "swapped.jsonl",
                 "columnar": root / "swapped.cap"}
        write_capture(paths["jsonl"], "jsonl", records)
        write_capture(paths["columnar"], "columnar", records,
                      block_records=64)
        return paths

    @staticmethod
    def engine():
        # One flush per Γ change within a short window: every frame's
        # position in the stream shows in the tracks.
        return StreamingEngine(MLoc(build_database()), window_s=2.0,
                               batch_size=1,
                               sinks=[make_sink("latest"), TrackerSink()])

    @pytest.mark.parametrize("batch_records", [1, 37, 1024])
    @pytest.mark.parametrize("fmt", ["jsonl", "columnar"])
    def test_batch_replay_matches_record_replay(self, swapped, fmt,
                                                batch_records):
        record = self.engine()
        record.run(iter_capture(swapped[fmt]))
        batched = self.engine()
        batched.run_batches(iter_capture_batches(
            swapped[fmt], batch_records=batch_records))
        assert stripped_checkpoint(batched) == stripped_checkpoint(record)
        assert fixes_of(batched) == fixes_of(record)
        assert linker_state(batched) == linker_state(record)


def shuffled_within_windows(records, window=8, seed=3):
    """``records`` with each run of ``window`` shuffled in place."""
    rng = random.Random(seed)
    shuffled = []
    for start in range(0, len(records), window):
        chunk = records[start:start + window]
        rng.shuffle(chunk)
        shuffled.extend(chunk)
    return shuffled


def per_device_state(checkpoints, tracks):
    """The per-device parts of engine checkpoints, merged, beside every
    fix the ``tracks`` sink received."""
    state = {"tracks": emitted_tracks(tracks), "latest": {}, "gamma": {}}
    for data in checkpoints:
        state["latest"].update(data["latest"])
        state["gamma"].update(data["gamma"]["events"])
    return state


#: One flush per Γ change, so every track point is fixed by the device's
#: own frame order alone and shard width cannot move it.
UNBATCHED = dict(window_s=120.0, batch_size=1)


def oracle_state(frames):
    tracks = TrackerSink()
    engine = StreamingEngine(MLoc(build_database()), **UNBATCHED,
                             sinks=[tracks])
    engine.run(iter(frames))
    return per_device_state([engine.checkpoint()], tracks)


def fleet_state(engine, checkpoint_dir, tracks):
    engine.drain()
    engine.save_checkpoints()
    return per_device_state(
        [load_checkpoint_data(path)
         for path in sorted(checkpoint_dir.glob("shard-*.ckpt.json"))],
        tracks)


def make_fleet(checkpoint_dir, tracks, transport="thread", shards=3):
    # Shard threads share the one tracker sink; each device's fixes
    # come from the one shard that owns it.
    return ShardedEngine(functools.partial(MLoc, build_database()),
                         shards=shards, transport=transport,
                         config=ShardConfig(**UNBATCHED,
                                            sink_specs=(tracks,)),
                         checkpoint_dir=checkpoint_dir, publish_batch=16)


class TestShuffledStreamEveryPath:
    """Frames out of order within windows of 8 reach every ingest path
    in arrival order: each path's per-device state equals the
    single-engine record path over the same stream."""

    @pytest.fixture(scope="class")
    def shuffled(self):
        frames = shuffled_within_windows(generate_records())
        return frames, oracle_state(frames)

    @pytest.mark.parametrize("transport", ["thread", "socket"])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_sharded(self, shuffled, tmp_path, transport, shards):
        frames, want = shuffled
        tracks = TrackerSink()
        with make_fleet(tmp_path, tracks, transport, shards) as engine:
            engine.ingest_stream(frames)
            assert fleet_state(engine, tmp_path, tracks) == want

    @pytest.fixture
    def capture(self, shuffled, tmp_path):
        path = tmp_path / "shuffled.jsonl"
        write_capture(path, "jsonl", shuffled[0])
        return path

    def stream(self, path, gateway):
        # No client-side reorder either: the gateway sees file order.
        stream_capture_to(path, gateway.address, batch_records=16,
                          reorder_buffer=0)

    def test_gateway_into_single_engine(self, shuffled, capture):
        tracks = TrackerSink()
        engine = StreamingEngine(MLoc(build_database()), **UNBATCHED,
                                 sinks=[tracks])
        with FrameIngestServer(engine) as gateway:
            self.stream(capture, gateway)
        assert (per_device_state([engine.checkpoint()], tracks)
                == shuffled[1])

    def test_gateway_into_sharded_engine(self, shuffled, capture,
                                         tmp_path):
        checkpoint_dir = tmp_path / "fleet"
        tracks = TrackerSink()
        with make_fleet(checkpoint_dir, tracks) as engine, \
                FrameIngestServer(engine) as gateway:
            self.stream(capture, gateway)
            assert (fleet_state(engine, checkpoint_dir, tracks)
                    == shuffled[1])
