"""`marauder engine` CLI tests: end-to-end run, resume, clean failures."""

import json
import re

import pytest

from repro.capture import make_capture_writer
from repro.cli import main
from repro.engine import StreamingEngine, TrackerSink
from repro.geo.enu import LocalTangentPlane
from repro.geo.wgs84 import GeodeticCoordinate
from repro.knowledge.wigle import export_wigle_csv, import_wigle_csv
from repro.localization import make_localizer
from repro.sim import build_attack_scenario
from repro.sniffer.replay import iter_capture

from tests.test_capture_engine_equivalence import (build_database,
                                                    generate_records,
                                                    swapped_nearby,
                                                    write_capture)

ORIGIN = GeodeticCoordinate(42.6555, -71.3262)


@pytest.fixture(scope="module")
def sim_capture(tmp_path_factory):
    """A simulated campus capture + matching WiGLE knowledge."""
    tmp_path = tmp_path_factory.mktemp("engine_cli")
    scenario = build_attack_scenario(seed=6, ap_count=40, area_m=350.0,
                                     bystander_count=4)
    scenario.world.sniffer.keep_frames = True
    scenario.world.run(duration_s=120.0)

    capture_path = tmp_path / "capture.jsonl"
    with make_capture_writer(capture_path, format="jsonl") as writer:
        for received in scenario.world.sniffer.captured:
            writer.write(received)
    wigle_path = tmp_path / "wigle.csv"
    export_wigle_csv(scenario.truth_db, wigle_path,
                     LocalTangentPlane(ORIGIN))
    return scenario, capture_path, wigle_path


class TestEngineCommand:
    def test_streams_capture_and_prints_stats(self, sim_capture, capsys):
        scenario, capture_path, wigle_path = sim_capture
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "EngineStats:" in out
        assert "frames ingested" in out
        assert "hit rate" in out
        assert "estimates/s" in out
        # The victim walked through the campus: it got localized.
        assert str(scenario.victim.mac) in out

    def test_no_cache_flag(self, sim_capture, capsys):
        _, capture_path, wigle_path = sim_capture
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path), "--no-cache"])
        assert code == 0
        assert "cache             : disabled" in capsys.readouterr().out

    def test_refit_every_reports_fit_time(self, sim_capture, capsys):
        scenario, capture_path, wigle_path = sim_capture
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--refit-every", "50", "--r-max", "120"])
        assert code == 0
        out = capsys.readouterr().out
        assert "re-fits" in out
        assert "fit time" in out
        # The streaming localizer is AP-Rad, not the M-Loc fallback.
        assert str(scenario.victim.mac) in out

    def test_checkpoint_then_resume(self, sim_capture, tmp_path, capsys):
        _, capture_path, wigle_path = sim_capture
        ckpt = tmp_path / "engine.ckpt.json"
        assert main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--checkpoint", str(ckpt)]) == 0
        assert ckpt.exists()
        capsys.readouterr()
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--resume", str(ckpt)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Resumed from" in out
        assert "EngineStats:" in out

    @pytest.fixture(scope="class")
    def checkpoint(self, sim_capture, tmp_path_factory):
        """A checkpoint written with the default engine flags."""
        _, capture_path, wigle_path = sim_capture
        ckpt = tmp_path_factory.mktemp("resume_flags") / "engine.ckpt.json"
        assert main(["engine", str(capture_path), "--wigle", str(wigle_path),
                     "--checkpoint", str(ckpt)]) == 0
        return ckpt

    @pytest.mark.parametrize("flags", [
        ["--window", "60"], ["--batch", "7"], ["--cache-size", "16"],
        ["--no-cache"], ["--quarantine-after", "5"],
        ["--refit-every", "40"],
    ], ids=lambda flags: flags[0])
    def test_resume_rejects_a_flag_that_differs(self, sim_capture,
                                                 checkpoint, flags, capsys):
        _, capture_path, wigle_path = sim_capture
        capsys.readouterr()
        code = main(["engine", str(capture_path), "--wigle", str(wigle_path),
                     "--resume", str(checkpoint), *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert "Resumed from" not in captured.out
        error = captured.err.strip()
        assert error.startswith(f"error: {flags[0]}")
        assert str(checkpoint) in error and "\n" not in error

    @pytest.mark.parametrize("flags", [
        [],
        ["--window", "30", "--batch", "32", "--cache-size", "4096",
         "--quarantine-after", "3"],
    ], ids=["no-flags", "same-values"])
    def test_resume_accepts_flags_that_agree(self, sim_capture, checkpoint,
                                             flags, capsys):
        _, capture_path, wigle_path = sim_capture
        capsys.readouterr()
        assert main(["engine", str(capture_path), "--wigle", str(wigle_path),
                     "--resume", str(checkpoint), *flags]) == 0
        assert "Resumed from" in capsys.readouterr().out

    def test_resume_restores_refit_schedule(self, sim_capture, tmp_path,
                                            capsys):
        """Resuming without --refit-every must honor the checkpointed
        schedule — including choosing the AP-Rad localizer, so re-fits
        keep running instead of silently no-opping on M-Loc."""
        scenario, capture_path, wigle_path = sim_capture
        lines = capture_path.read_text().splitlines(keepends=True)
        half = len(lines) // 2
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        first.write_text("".join(lines[:half]))
        second.write_text("".join(lines[half:]))

        def refit_count(text):
            # stats line looks like "re-fits : 2 (last solve ...)"
            match = re.search(r"re-fits\s*:\s*(\d+)", text)
            assert match, text
            return int(match.group(1))

        ckpt = tmp_path / "refit.ckpt.json"
        assert main(["engine", str(first), "--wigle", str(wigle_path),
                     "--refit-every", "50", "--r-max", "120",
                     "--checkpoint", str(ckpt)]) == 0
        first_refits = refit_count(capsys.readouterr().out)
        assert first_refits > 0

        # Second half: no --refit-every on the command line.
        assert main(["engine", str(second), "--wigle", str(wigle_path),
                     "--resume", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "Resumed from" in out
        # The schedule kept firing on the second half's evidence.
        assert refit_count(out) > first_refits
        assert str(scenario.victim.mac) in out

    def test_resumed_run_prints_every_device_fix(self, sim_capture,
                                                  tmp_path, capsys):
        """The victim falls silent after the split: the resumed run is
        never asked to locate it again, yet prints its fix, exactly as
        the uninterrupted run does."""
        scenario, capture_path, wigle_path = sim_capture
        victim = str(scenario.victim.mac)
        lines = capture_path.read_text().splitlines(keepends=True)
        half = len(lines) // 2
        silent = [line for line in lines[half:] if victim not in line]
        assert victim in "".join(lines[:half])
        paths = {}
        for name, part in (("whole", lines[:half] + silent),
                           ("first", lines[:half]), ("second", silent)):
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text("".join(part))

        def fix_lines(*extra):
            # One flush per Γ change: nothing is pending at the split.
            assert main(["engine", str(extra[0]), "--wigle",
                         str(wigle_path), "--batch", "1",
                         *map(str, extra[1:])]) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if " -> (" in line]

        want = fix_lines(paths["whole"])
        ckpt = tmp_path / "split.ckpt.json"
        fix_lines(paths["first"], "--checkpoint", ckpt)
        got = fix_lines(paths["second"], "--resume", ckpt)
        assert any(victim in line for line in want)
        assert got == want


class TestEngineObservability:
    def test_metrics_json_contains_acceptance_series(self, sim_capture,
                                                     tmp_path, capsys):
        import json

        _, capture_path, wigle_path = sim_capture
        out_path = tmp_path / "metrics.json"
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--refit-every", "50", "--r-max", "120",
                     "--localizer", "ap-rad:r_max=120",
                     "--metrics-json", str(out_path)])
        assert code == 0
        assert "Metrics snapshot written to" in capsys.readouterr().out
        snapshot = json.loads(out_path.read_text())
        assert "repro.engine.flush.duration" in snapshot["histograms"]
        for event in ("hit", "miss", "eviction"):
            assert f"repro.engine.cache.{event}" in snapshot["counters"]
        assert "repro.lp.revised.pivots" in snapshot["counters"]
        assert snapshot["counters"]["repro.sniffer.replay.frames"] > 0

    def test_trace_exports_chrome_json(self, sim_capture, tmp_path,
                                       capsys):
        import json

        _, capture_path, wigle_path = sim_capture
        trace_path = tmp_path / "trace.json"
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--trace", str(trace_path)])
        assert code == 0
        assert "spans) written to" in capsys.readouterr().out
        events = json.loads(trace_path.read_text())["traceEvents"]
        names = {event["name"] for event in events}
        assert "engine.flush" in names

    def test_localizer_spec_selects_algorithm(self, sim_capture, capsys):
        _, capture_path, wigle_path = sim_capture
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--localizer", "centroid"])
        assert code == 0
        assert "EngineStats:" in capsys.readouterr().out

    def test_bad_localizer_spec_fails_cleanly(self, sim_capture, capsys):
        _, capture_path, wigle_path = sim_capture
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--localizer", "triangulate"])
        assert code == 2
        assert "unknown localizer" in capsys.readouterr().err


class TestCleanFailures:
    def test_engine_missing_capture(self, sim_capture, tmp_path, capsys):
        _, _, wigle_path = sim_capture
        code = main(["engine", str(tmp_path / "nope.jsonl"),
                     "--wigle", str(wigle_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "nope.jsonl" in err

    def test_engine_corrupt_capture(self, sim_capture, tmp_path, capsys):
        _, _, wigle_path = sim_capture
        bad = tmp_path / "corrupt.jsonl"
        bad.write_text('{"capture_format": 1}\nthis is not json\n')
        code = main(["engine", str(bad), "--wigle", str(wigle_path)])
        assert code == 2
        assert "corrupt capture" in capsys.readouterr().err

    def test_engine_missing_wigle(self, sim_capture, tmp_path, capsys):
        _, capture_path, _ = sim_capture
        code = main(["engine", str(capture_path),
                     "--wigle", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "WiGLE" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workers", "--worker-timeout"])
    def test_engine_rejects_process_pool_flags(self, sim_capture, capsys,
                                               flag):
        _, capture_path, wigle_path = sim_capture
        with pytest.raises(SystemExit) as exit_info:
            main(["engine", str(capture_path), "--wigle", str(wigle_path),
                  flag, "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_engine_corrupt_checkpoint(self, sim_capture, tmp_path,
                                       capsys):
        _, capture_path, wigle_path = sim_capture
        bad = tmp_path / "bad.ckpt.json"
        bad.write_text('{"engine_checkpoint": 99}')
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--resume", str(bad)])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_replay_missing_capture(self, sim_capture, tmp_path, capsys):
        _, _, wigle_path = sim_capture
        code = main(["replay", str(tmp_path / "nope.jsonl"),
                     "--wigle", str(wigle_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_corrupt_capture(self, sim_capture, tmp_path, capsys):
        _, _, wigle_path = sim_capture
        bad = tmp_path / "corrupt.jsonl"
        bad.write_text("}{ garbage\n")
        code = main(["replay", str(bad), "--wigle", str(wigle_path)])
        assert code == 2
        assert "corrupt capture" in capsys.readouterr().err


class TestColumnarCaptureCLI:
    @pytest.fixture(scope="class")
    def columnar_capture(self, sim_capture, tmp_path_factory):
        """The fixture capture converted to a columnar store via CLI."""
        _, capture_path, _ = sim_capture
        out = tmp_path_factory.mktemp("columnar") / "capture.cap"
        assert main(["capture", "convert", str(capture_path),
                     str(out), "--block-records", "256"]) == 0
        return out

    def test_capture_info(self, columnar_capture, capsys):
        assert main(["capture", "info", str(columnar_capture)]) == 0
        out = capsys.readouterr().out
        assert "columnar capture" in out
        assert "bloom" in out

    def test_capture_info_json(self, columnar_capture, capsys):
        assert main(["capture", "info", str(columnar_capture),
                     "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["format"] == "columnar"
        assert info["records"] > 0

    def test_engine_flag_and_sniffed_format(self, sim_capture,
                                            columnar_capture, capsys):
        """--capture with a columnar file needs no --format."""
        _, _, wigle_path = sim_capture
        code = main(["engine", "--capture", str(columnar_capture),
                     "--wigle", str(wigle_path)])
        assert code == 0
        assert "EngineStats:" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["jsonl", "columnar"])
    def test_swapped_capture_prints_record_fixes(self, tmp_path, capsys,
                                                 fmt):
        """A capture locally out of order: the command prints the fixes
        and tracks of ``StreamingEngine.run`` over ``iter_capture``."""
        capture = tmp_path / f"swapped.{fmt}"
        options = {"block_records": 64} if fmt == "columnar" else {}
        write_capture(capture, fmt, swapped_nearby(generate_records()),
                      **options)
        plane = LocalTangentPlane(ORIGIN)
        wigle = tmp_path / "wigle.csv"
        export_wigle_csv(build_database(), wigle, plane)
        oracle = StreamingEngine(
            make_localizer("m-loc", database=import_wigle_csv(wigle, plane),
                           fallback_range_m=150.0),
            window_s=2.0, batch_size=1, sinks=[TrackerSink()])
        oracle.run(iter_capture(capture))
        want = []
        for mobile in oracle.tracker.devices():
            point = oracle.tracker.latest(mobile)
            coordinate = plane.from_point(point.estimate.position)
            want.append(f"  {mobile}  -> ({coordinate.latitude_deg:.6f}, "
                        f"{coordinate.longitude_deg:.6f})  "
                        f"at t={point.timestamp:.1f}s  "
                        f"[{point.estimate.used_ap_count} APs]")
        tracks = oracle.sinks[0].tracker
        for mobile in tracks.devices():
            want.append(f"  track {mobile}: " + " -> ".join(
                f"({p.estimate.position.x:.0f},{p.estimate.position.y:.0f})"
                f"@{p.timestamp:.0f}s"
                for p in tracks.track_of(mobile)))
        assert len(want) == 14

        metrics = tmp_path / "metrics.json"
        assert main(["engine", str(capture), "--wigle", str(wigle),
                     "--window", "2", "--batch", "1", "--tracks",
                     "--metrics-json", str(metrics)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if " -> (" in line
                or line.startswith("  track ")] == want
        # The swapped columnar capture replays through iter_capture, and
        # the replay counts that under its own name: no client ran.
        counters = json.loads(metrics.read_text())["counters"]
        assert "repro.ingest.client.fallbacks" not in counters
        assert (counters.get("repro.sniffer.replay.fallbacks", 0) > 0) == (
            fmt == "columnar")

    def test_engine_rejects_capture_given_twice(self, sim_capture,
                                                columnar_capture, capsys):
        _, capture_path, wigle_path = sim_capture
        code = main(["engine", str(capture_path),
                     "--capture", str(columnar_capture),
                     "--wigle", str(wigle_path)])
        assert code == 2
        assert "once" in capsys.readouterr().err

    def test_capture_compact_merges(self, sim_capture, columnar_capture,
                                    tmp_path, capsys):
        _, capture_path, _ = sim_capture
        merged = tmp_path / "merged.cap"
        code = main(["capture", "compact", str(capture_path),
                     str(columnar_capture), "--output", str(merged)])
        assert code == 0
        assert "Compacted 2 capture(s)" in capsys.readouterr().out
        assert main(["capture", "info", str(merged)]) == 0
        assert "globally sorted: True" in capsys.readouterr().out

    def test_capture_convert_missing_source(self, tmp_path, capsys):
        code = main(["capture", "convert", str(tmp_path / "nope.jsonl"),
                     str(tmp_path / "out.cap")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
