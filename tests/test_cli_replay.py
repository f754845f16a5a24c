"""End-to-end CLI replay test: capture -> WiGLE CSV -> marauder replay."""

import pytest

from repro.capture import make_capture_writer
from repro.cli import main
from repro.geo.enu import LocalTangentPlane
from repro.geo.wgs84 import GeodeticCoordinate
from repro.knowledge.wigle import export_wigle_csv
from repro.sim import build_attack_scenario

ORIGIN = GeodeticCoordinate(42.6555, -71.3262)


@pytest.fixture
def recorded_scenario(tmp_path):
    """Run the live attack with frame retention; persist everything."""
    scenario = build_attack_scenario(seed=6, ap_count=50, area_m=400.0,
                                     bystander_count=4)
    scenario.world.sniffer.keep_frames = True
    scenario.world.run(duration_s=150.0)

    capture_path = tmp_path / "capture.jsonl"
    with make_capture_writer(capture_path, format="jsonl") as writer:
        for received in scenario.world.sniffer.captured:
            writer.write(received)

    plane = LocalTangentPlane(ORIGIN)
    wigle_path = tmp_path / "wigle.csv"
    export_wigle_csv(scenario.truth_db, wigle_path, plane)
    return scenario, capture_path, wigle_path


class TestReplayCommand:
    def test_locates_devices_from_capture(self, recorded_scenario,
                                          capsys):
        scenario, capture_path, wigle_path = recorded_scenario
        code = main(["replay", str(capture_path),
                     "--wigle", str(wigle_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Replayed" in out
        assert "Located" in out
        # The victim shows up with a geodetic fix.
        assert str(scenario.victim.mac) in out

    def test_plan_command(self, recorded_scenario, capsys):
        _, _, wigle_path = recorded_scenario
        code = main(["plan", str(wigle_path), "--cards", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Channel histogram" in out
        assert "monitor channels" in out
        # The generator puts ~94% of APs on 1/6/11: the plan finds them.
        assert "[1, 6, 11]" in out

    def test_plan_without_channels_fails_cleanly(self, tmp_path, capsys):
        wigle_path = tmp_path / "nochannels.csv"
        wigle_path.write_text(
            "netid,ssid,trilat,trilong,channel\n"
            "00:11:22:33:44:55,x,42.65,-71.32,\n")
        code = main(["plan", str(wigle_path)])
        assert code == 1
        assert "cannot plan" in capsys.readouterr().out

    def test_empty_capture_handled(self, tmp_path, capsys):
        capture_path = tmp_path / "empty.jsonl"
        with make_capture_writer(capture_path, format="jsonl"):
            pass
        plane = LocalTangentPlane(ORIGIN)
        wigle_path = tmp_path / "wigle.csv"
        from repro.knowledge.apdb import ApDatabase
        export_wigle_csv(ApDatabase(), wigle_path, plane)
        code = main(["replay", str(capture_path),
                     "--wigle", str(wigle_path)])
        assert code == 0
        assert "No (mobile, AP)" in capsys.readouterr().out
