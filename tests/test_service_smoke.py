"""Service smoke: a real `marauder serve` process, queried over HTTP.

The CI canary for the sharded service: spawn the actual CLI as a
subprocess on a small simulated capture, issue `locate`/`health`
queries, scrape Prometheus metrics, kill one shard through the chaos
endpoint, and require the fleet to recover from its checkpoint with
byte-identical serving state.
"""

import json
import os
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.capture import make_capture_writer
from repro.geo.enu import LocalTangentPlane
from repro.geo.wgs84 import GeodeticCoordinate
from repro.knowledge.wigle import export_wigle_csv
from repro.sim import build_attack_scenario

ORIGIN = GeodeticCoordinate(42.6555, -71.3262)
REPO_ROOT = Path(__file__).resolve().parent.parent


def get(base, path, timeout=10):
    try:
        with urllib.request.urlopen(base + path,
                                    timeout=timeout) as reply:
            return reply.status, reply.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


def post(base, path, timeout=10):
    request = urllib.request.Request(base + path, method="POST",
                                     data=b"")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, reply.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("service_smoke")
    scenario = build_attack_scenario(seed=13, ap_count=30,
                                     area_m=300.0, bystander_count=3)
    scenario.world.sniffer.keep_frames = True
    scenario.world.run(duration_s=60.0)
    capture_path = tmp_path / "capture.jsonl"
    with make_capture_writer(capture_path, format="jsonl") as writer:
        for received in scenario.world.sniffer.captured:
            writer.write(received)
    wigle_path = tmp_path / "wigle.csv"
    export_wigle_csv(scenario.truth_db, wigle_path,
                     LocalTangentPlane(ORIGIN))
    return scenario, capture_path, wigle_path, tmp_path


def test_serve_locate_scrape_kill_recover(capture):
    scenario, capture_path, wigle_path, tmp_path = capture
    victim = str(scenario.victim.mac)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    log_path = tmp_path / "serve.log"
    with open(log_path, "w", encoding="utf-8") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             str(capture_path), "--wigle", str(wigle_path),
             "--shards", "3", "--port", "0", "--chaos",
             "--checkpoint-dir", str(tmp_path / "ckpt"),
             "--checkpoint-every", "10",
             "--serve-seconds", "120"],
            env=env, stdout=log, stderr=subprocess.STDOUT)
    try:
        # Wait for the bound address, then for ingest to settle.
        base = None
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            text = log_path.read_text(encoding="utf-8")
            match = re.search(r"on (http://[\d.]+:\d+)", text)
            if match and "Ingest complete" in text:
                base = match.group(1)
                break
            assert process.poll() is None, f"serve died:\n{text}"
            time.sleep(0.5)
        assert base is not None, "serve never came up"

        # Health: every shard alive.
        status, body = get(base, "/health")
        assert status == 200
        health = json.loads(body)
        assert health["healthy"]
        assert len(health["shards"]) == 3

        # Locate the victim; snapshot the whole fleet.
        status, located = get(base, f"/locate?device={victim}")
        assert status == 200
        assert json.loads(located)["located"]
        before_snapshot = get(base, "/snapshot")[1]
        assert json.loads(before_snapshot)["devices"] > 0

        # Prometheus scrape over the merged registries.
        status, metrics = get(base, "/metrics")
        assert status == 200
        assert "# TYPE repro_engine_frames counter" in metrics
        assert "repro_engine_frames_total" in metrics
        assert "repro_service_frames_published_total" in metrics

        # At least one shard crossed a checkpoint barrier; kill one
        # that provably has a checkpoint on disk.
        checkpoints = sorted(
            p.name for p in (tmp_path / "ckpt").glob("*.ckpt.json"))
        assert checkpoints, "no shard ever wrote a checkpoint"
        target = int(checkpoints[0].split("-")[1].split(".")[0])

        # Chaos: kill that shard, then prove recovery is invisible —
        # the next state-touching read restarts it from checkpoint +
        # retention replay and answers exactly as before.
        status, body = post(base, f"/chaos/kill?shard={target}")
        assert status == 200
        health = json.loads(get(base, "/health")[1])
        assert not health["healthy"]
        assert health["shards"][target]["alive"] is False

        after_snapshot = get(base, "/snapshot")[1]
        assert after_snapshot == before_snapshot
        assert (json.loads(get(base, f"/locate?device={victim}")[1])
                == json.loads(located))
        health = json.loads(get(base, "/health")[1])
        assert health["healthy"]
        assert health["shards"][target]["restarts"] == 1

        # Graceful drain: SIGTERM settles the fleet and exits 0.
        process.terminate()
        assert process.wait(timeout=60) == 0
        text = log_path.read_text(encoding="utf-8")
        assert "Draining fleet for shutdown" in text
        assert "stopped cleanly" in text
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
