"""`marauder serve` CLI tests: end-to-end fleet over a capture."""

import json
import threading
import urllib.request

import pytest

from repro.capture import make_capture_writer
from repro.cli import main
from repro.geo.enu import LocalTangentPlane
from repro.geo.wgs84 import GeodeticCoordinate
from repro.knowledge.wigle import export_wigle_csv
from repro.sim import build_attack_scenario

ORIGIN = GeodeticCoordinate(42.6555, -71.3262)


@pytest.fixture(scope="module")
def sim_capture(tmp_path_factory):
    """A small simulated capture + matching WiGLE knowledge."""
    tmp_path = tmp_path_factory.mktemp("serve_cli")
    scenario = build_attack_scenario(seed=11, ap_count=30, area_m=300.0,
                                     bystander_count=3)
    scenario.world.sniffer.keep_frames = True
    scenario.world.run(duration_s=60.0)
    capture_path = tmp_path / "capture.jsonl"
    with make_capture_writer(capture_path, format="jsonl") as writer:
        for received in scenario.world.sniffer.captured:
            writer.write(received)
    wigle_path = tmp_path / "wigle.csv"
    export_wigle_csv(scenario.truth_db, wigle_path,
                     LocalTangentPlane(ORIGIN))
    return scenario, capture_path, wigle_path


class TestServeCommand:
    def test_ingests_serves_and_drains(self, sim_capture, capsys):
        scenario, capture_path, wigle_path = sim_capture
        code = main(["serve", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--shards", "2", "--port", "0",
                     "--serve-seconds", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Serving 2 shard(s) [thread]" in out
        assert "Ingest complete:" in out
        assert "stopped cleanly" in out

    def test_queries_answer_while_serving(self, sim_capture, capsys,
                                          tmp_path):
        scenario, capture_path, wigle_path = sim_capture
        victim = str(scenario.victim.mac)
        result = {}

        def run_cli():
            result["code"] = main(
                ["serve", str(capture_path),
                 "--wigle", str(wigle_path),
                 "--shards", "2", "--port", "0", "--chaos",
                 "--checkpoint-dir", str(tmp_path / "ckpt"),
                 "--checkpoint-every", "100",
                 "--serve-seconds", "10"])

        # The CLI owns the main thread in production; under test it
        # runs on a worker (signal handlers are skipped accordingly).
        thread = threading.Thread(target=run_cli, daemon=True)
        try:
            thread.start()
            base = None
            for _ in range(100):
                out = capsys.readouterr().out
                if "http://" in out:
                    base = out.split("on ")[1].split()[0]
                    break
                thread.join(timeout=0.2)
            assert base is not None, "server address never printed"
            # Wait until ingest settles, then query.
            for _ in range(50):
                with urllib.request.urlopen(base + "/health",
                                            timeout=10) as reply:
                    if json.loads(reply.read())["healthy"]:
                        break
                thread.join(timeout=0.2)
            with urllib.request.urlopen(
                    base + f"/locate?device={victim}",
                    timeout=10) as reply:
                located = json.loads(reply.read())
            assert located["located"]
            with urllib.request.urlopen(base + "/metrics",
                                        timeout=10) as reply:
                assert b"# TYPE" in reply.read()
        finally:
            thread.join(timeout=30.0)
        assert result.get("code") == 0

    def test_ingest_ends_with_a_checkpoint_barrier(self, sim_capture,
                                                   capsys, tmp_path):
        # Barriers ride on publishes, and none is sent while another
        # is in flight: slow checkpoint writes leave the tail of the
        # capture retained (and unsaved) unless ingest ends with one.
        _, capture_path, wigle_path = sim_capture
        ckpt = tmp_path / "ckpt"
        result = {}

        def run_cli():
            result["code"] = main(
                ["serve", str(capture_path),
                 "--wigle", str(wigle_path),
                 "--shards", "2", "--port", "0",
                 "--checkpoint-dir", str(ckpt),
                 "--checkpoint-every", "10", "--publish-batch", "8",
                 "--inject", "engine.checkpoint:delay=0.2,times=2",
                 "--serve-seconds", "3"])

        thread = threading.Thread(target=run_cli, daemon=True)
        try:
            thread.start()
            out = ""
            for _ in range(150):
                out += capsys.readouterr().out
                if "Ingest complete:" in out:
                    break
                thread.join(timeout=0.1)
            assert "Ingest complete:" in out
            base = out.split("on ")[1].split()[0]
            with urllib.request.urlopen(base + "/health",
                                        timeout=10) as reply:
                shards = json.loads(reply.read())["shards"]
            assert [s["retained_frames"] for s in shards] == [0, 0]
            assert {"shard-000.ckpt.json", "shard-001.ckpt.json"} <= {
                path.name for path in ckpt.iterdir()}
        finally:
            thread.join(timeout=30.0)
        assert result.get("code") == 0

    def test_missing_wigle_fails_cleanly(self, sim_capture, capsys):
        _, capture_path, _ = sim_capture
        code = main(["serve", str(capture_path),
                     "--wigle", "/nonexistent.csv",
                     "--serve-seconds", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_shards_fails_cleanly(self, sim_capture, capsys):
        _, capture_path, wigle_path = sim_capture
        code = main(["serve", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--shards", "0", "--serve-seconds", "0"])
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_bad_localizer_spec_fails_cleanly(self, sim_capture,
                                              capsys):
        _, capture_path, wigle_path = sim_capture
        code = main(["serve", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--localizer", "warp-drive",
                     "--serve-seconds", "0"])
        assert code == 2
        assert "unknown localizer" in capsys.readouterr().err
