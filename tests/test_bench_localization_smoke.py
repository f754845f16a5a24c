"""Tier-1 smoke for the localization kernel bench (tiny configuration).

Catches regressions in the acceptance property — one ``locate_batch``
call must beat sequential ``locate`` calls on the k=10 workload, with
identical estimates (the bench checks that) — without the full sweep.  Runs the bench script the same way an operator would,
as a standalone process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "benchmarks" / "bench_localization_kernels.py"


def test_bench_localization_kernels_smoke(tmp_path):
    out_path = tmp_path / "localization_kernels.json"
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    result = subprocess.run(
        [sys.executable, str(BENCH), "--ks", "10", "--batches", "128",
         "--repeats", "1", "--clusters", "8",
         "--json", str(out_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "acceptance cell" in result.stdout

    report = json.loads(out_path.read_text())
    assert report["bench"] == "localization_kernels"
    assert report["config"]["ks"] == [10]
    (cell,) = report["results"]
    assert cell["k"] == 10 and cell["batch"] == 128
    # Both ways ran and produced real throughput.
    assert cell["sequential_sets_per_sec"] > 0.0
    assert cell["batch_sets_per_sec"] > 0.0
    # The acceptance property (loose bound: the smoke just guards the
    # direction).
    assert cell["batch_speedup"] > 1.0
    assert report["acceptance"]["batch_speedup"] == cell["batch_speedup"]
