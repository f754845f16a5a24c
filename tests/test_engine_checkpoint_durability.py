"""Durable checkpoints: atomicity, CRC integrity, rotation, fallback."""

import json
import zlib

import pytest

from repro.engine import StreamingEngine, TrackerSink, load_checkpoint_data
from repro.faults import (
    CheckpointError,
    FaultInjector,
    FaultSpec,
    use_injector,
)
from repro.localization import MLoc

from tests.test_engine_checkpoint import (build_stream, final_tracks,
                                         newest_fixes)


def framed(data):
    """``data`` as a checkpoint file: a CRC32 header line, then JSON."""
    body = json.dumps(data).encode("utf-8")
    return b"%d\n" % zlib.crc32(body) + body


def run_partial(square_db, frames, sinks=()):
    engine = StreamingEngine(MLoc(square_db), window_s=30.0, batch_size=3,
                             sinks=sinks)
    engine.ingest_stream(frames)
    return engine


class TestAtomicSave:
    def test_save_leaves_no_temp_file(self, square_db, tmp_path):
        engine = run_partial(square_db,
                             build_stream(square_db, devices=2, rounds=1))
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path)
        assert path.exists()
        assert list(tmp_path.iterdir()) == [path]

    def test_payload_carries_valid_crc(self, square_db, tmp_path):
        # The header line is the CRC32 of exactly the bytes after it.
        engine = run_partial(square_db,
                             build_stream(square_db, devices=2, rounds=1))
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path)
        header, newline, body = path.read_bytes().partition(b"\n")
        assert newline and int(header) == zlib.crc32(body)
        data = json.loads(body)
        assert data["engine_checkpoint"] == 5
        assert "crc32" not in data
        assert data == json.loads(json.dumps(engine.checkpoint()))

    def test_crash_mid_checkpoint_preserves_previous(self, square_db,
                                                     tmp_path):
        frames = build_stream(square_db)
        engine = run_partial(square_db, frames[:30])
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path)
        before = path.read_bytes()
        engine.ingest_stream(frames[30:60])
        injector = FaultInjector(
            [FaultSpec("engine.checkpoint", mode="raise",
                       error="CheckpointError")])
        with use_injector(injector):
            with pytest.raises(CheckpointError):
                engine.save_checkpoint(path)
        # The fault hit between temp-write and rename: the previous
        # generation is untouched and still restores.
        assert path.read_bytes() == before
        StreamingEngine.load_checkpoint(path, MLoc(square_db))

    def test_save_rejects_bad_keep(self, square_db, tmp_path):
        engine = StreamingEngine(MLoc(square_db))
        with pytest.raises(ValueError):
            engine.save_checkpoint(tmp_path / "x.ckpt", keep=0)


class TestIntegrity:
    def test_tampered_checkpoint_raises(self, square_db, tmp_path):
        engine = run_partial(square_db,
                             build_stream(square_db, devices=2, rounds=1))
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path)
        raw = bytearray(path.read_bytes())
        raw[-2] ^= 0x01  # bit-rot inside the body
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC mismatch"):
            load_checkpoint_data(path)
        # CheckpointError subclasses ValueError: legacy handlers hold.
        with pytest.raises(ValueError):
            StreamingEngine.load_checkpoint(path, MLoc(square_db))

    def test_truncated_checkpoint_raises(self, square_db, tmp_path):
        path = tmp_path / "engine.ckpt"
        path.write_text('{"engine_checkpoint": 3, "conf')
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            load_checkpoint_data(path)

    def test_missing_checkpoint_names_tried_files(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint_data(tmp_path / "absent.ckpt")

    def test_checkpoint_without_crc_is_rejected(self, square_db,
                                                tmp_path):
        engine = run_partial(square_db,
                             build_stream(square_db, devices=2, rounds=1))
        path = tmp_path / "engine.ckpt"
        path.write_text(json.dumps(engine.checkpoint()))
        with pytest.raises(CheckpointError, match="carries no crc32"):
            load_checkpoint_data(path)

    def test_file_without_header_line_is_rejected(self, square_db,
                                                 tmp_path):
        # Pretty-printed JSON has lines, but the first is no CRC.
        engine = run_partial(square_db,
                             build_stream(square_db, devices=2, rounds=1))
        path = tmp_path / "engine.ckpt"
        path.write_text(json.dumps(engine.checkpoint(), indent=1))
        with pytest.raises(CheckpointError, match="carries no crc32"):
            load_checkpoint_data(path)

    def test_pre_v3_checkpoints_are_rejected(self, square_db, tmp_path):
        # Even behind a valid CRC header, another version never restores.
        engine = run_partial(square_db,
                             build_stream(square_db, devices=2, rounds=1))
        for version in (1, 2):
            data = engine.checkpoint()
            data["engine_checkpoint"] = version
            path = tmp_path / f"v{version}.ckpt"
            path.write_bytes(framed(data))
            with pytest.raises(CheckpointError, match="unsupported"):
                load_checkpoint_data(path)
            with pytest.raises(CheckpointError, match="unsupported"):
                StreamingEngine.restore(data, MLoc(square_db))

    def test_v3_checkpoint_is_rejected(self, square_db, tmp_path):
        # v3: one JSON object with an embedded "crc32" field over its
        # key-sorted JSON, no header line.
        engine = run_partial(square_db,
                             build_stream(square_db, devices=2, rounds=1))
        data = engine.checkpoint()
        data["engine_checkpoint"] = 3
        data["crc32"] = zlib.crc32(
            json.dumps(data, sort_keys=True).encode("utf-8"))
        path = tmp_path / "v3.ckpt"
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="carries no crc32"):
            load_checkpoint_data(path)
        path.write_bytes(framed(data))
        with pytest.raises(CheckpointError, match="unsupported"):
            load_checkpoint_data(path)
        with pytest.raises(CheckpointError, match="unsupported"):
            StreamingEngine.restore(data, MLoc(square_db))

    def test_v4_checkpoint_is_rejected(self, square_db, tmp_path):
        # v4: the same CRC header, but with each device's older fixes
        # under "tracks" and timer histograms under "metrics".  No
        # migration: it never restores.
        engine = run_partial(square_db,
                             build_stream(square_db, devices=2, rounds=1))
        data = engine.checkpoint()
        data["engine_checkpoint"] = 4
        data["tracks"] = {mobile: [] for mobile in data["latest"]}
        data["metrics"]["histograms"] = {}
        path = tmp_path / "v4.ckpt"
        path.write_bytes(framed(data))
        with pytest.raises(CheckpointError, match="unsupported"):
            load_checkpoint_data(path)
        with pytest.raises(CheckpointError, match="unsupported"):
            StreamingEngine.restore(data, MLoc(square_db))


class TestRotation:
    def test_generations_rotate_up_to_keep(self, square_db, tmp_path):
        engine = StreamingEngine(MLoc(square_db))
        path = tmp_path / "engine.ckpt"
        for _ in range(4):
            engine.save_checkpoint(path, keep=3)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["engine.ckpt", "engine.ckpt.1", "engine.ckpt.2"]

    def test_keep_one_overwrites_in_place(self, square_db, tmp_path):
        engine = StreamingEngine(MLoc(square_db))
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path, keep=1)
        engine.save_checkpoint(path, keep=1)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["engine.ckpt"]

    def test_corrupt_newest_falls_back_to_rotation(self, square_db,
                                                   tmp_path):
        frames = build_stream(square_db)
        cut = 37
        path = tmp_path / "engine.ckpt"

        whole, before, after = TrackerSink(), TrackerSink(), TrackerSink()
        uninterrupted = StreamingEngine(MLoc(square_db), window_s=30.0,
                                        batch_size=3, sinks=[whole])
        uninterrupted.run(iter(frames))

        engine = run_partial(square_db, frames[:cut], sinks=[before])
        engine.save_checkpoint(path, keep=2)
        engine.save_checkpoint(path, keep=2)
        # The newest generation is torn mid-write (killed process).
        path.write_text(path.read_text()[: path.stat().st_size // 2])

        resumed = StreamingEngine.load_checkpoint(path, MLoc(square_db),
                                                  sinks=[after])
        resumed.ingest_stream(frames[cut:])
        resumed.flush()
        # Resumed-from-rotation still equals the uninterrupted run:
        # emitted tracks, newest fixes and cumulative metrics alike.
        assert final_tracks(before, after) == final_tracks(whole)
        assert newest_fixes(resumed) == newest_fixes(uninterrupted)
        assert resumed.stats().frames_ingested == (
            uninterrupted.stats().frames_ingested)

    def test_fallback_disabled_fails_fast(self, square_db, tmp_path):
        engine = run_partial(square_db,
                             build_stream(square_db, devices=2, rounds=1))
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path, keep=2)
        engine.save_checkpoint(path, keep=2)
        path.write_text("garbage")
        load_checkpoint_data(path)  # fallback finds .1
        with pytest.raises(CheckpointError):
            load_checkpoint_data(path, fallback=False)
