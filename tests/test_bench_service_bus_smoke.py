"""Tier-1 smoke for the bus transport bench (a tiny run).

Guards the acceptance property — the socket transport and the TCP
ingest gateway produce output identical to the in-process paths, at a
measured throughput cost — without the full committed-bench sizes.
Runs the bench the way an operator would, as a standalone process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "benchmarks" / "bench_service_bus.py"


def test_bench_service_bus_smoke(tmp_path):
    out_path = tmp_path / "service_bus.json"
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    result = subprocess.run(
        [sys.executable, str(BENCH), "--messages", "2000",
         "--frames", "1500", "--repeats", "1",
         "--json", str(out_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "raw socket" in result.stdout
    assert "gateway" in result.stdout

    report = json.loads(out_path.read_text())
    assert report["bench"] == "service_bus"
    assert report["config"]["cpu_count"] == os.cpu_count()
    assert report["config"]["messages"] == 2000

    assert set(report["raw"]) == {"thread", "socket"}
    for transport in ("thread", "socket"):
        assert report["raw"][transport]["messages_per_sec"] > 0.0

    # The acceptance property, at smoke scale: the TCP hops cost
    # throughput but change nothing in the output.
    assert report["fleet"]["outputs_identical"] is True
    assert report["gateway"]["outputs_identical"] is True
    assert report["gateway"]["frames"] == 1500
    assert report["gateway"]["gateway"]["reconnects"] == 0
