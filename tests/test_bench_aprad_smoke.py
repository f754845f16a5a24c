"""Tier-1 smoke for the AP-Rad LP bench (tiny configuration).

Guards the correctness property — a warm-started incremental re-fit
must land on the radii of a cold fit over the same corpus — without
the full sweep.  Runs the bench script the same way an operator would,
as a standalone process.  Cell timings are reported, not asserted: a
60-AP cell solves in milliseconds, below the host's run-to-run noise.
The campus row's bound (at most 10x HiGHS's time, about 2.5x here)
leaves room for that noise.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "benchmarks" / "bench_aprad_lp.py"


def test_bench_aprad_lp_smoke(tmp_path):
    out_path = tmp_path / "aprad_lp.json"
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    result = subprocess.run(
        [sys.executable, str(BENCH), "--aps", "60", "--observations",
         "200", "--repeats", "1", "--json", str(out_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "acceptance cell" in result.stdout

    report = json.loads(out_path.read_text())
    assert report["bench"] == "aprad_lp"
    assert report["config"]["aps"] == [60]
    (cell,) = report["results"]
    assert cell["aps"] == 60 and cell["observations"] == 200
    # Both paths ran and produced real timings.
    assert cell["cold_seconds"] > 0.0
    assert cell["incremental_seconds"] > 0.0
    assert cell["warm_started"]
    # The cold fit starts from a feasible basis: no phase-1 pivots.
    assert cell["cold_pivots"] > 0
    assert cell["cold_phase1_pivots"] == 0
    # Its steps pass penalty breakpoints instead of pivoting at each.
    assert cell["cold_breakpoints"] > 0
    assert cell["incremental_breakpoints"] >= 0
    # The warm refit's pivots are reported too.
    assert cell["incremental_pivots"] >= cell["incremental_phase1_pivots"]
    assert cell["incremental_phase1_pivots"] >= 0
    # The correctness property is exact at any scale: the warm and
    # cold paths must agree on the radii.
    assert cell["radii_agree"], cell["max_radius_diff_m"]
    assert (report["acceptance"]["incremental_vs_cold"]
            == cell["incremental_vs_cold"])
    # The paper-scale campus LP solves in-tree at HiGHS's objective.
    campus = report["campus"]
    assert campus["ok"], campus
    assert campus["breakpoints"] > 0
