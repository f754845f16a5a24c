"""Smoke tests for the pipeline benchmark, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import corpus  # noqa: E402
from corpus import CorpusSpec, build_rows, oracle_fixes  # noqa: E402
from layers import SpanTable, Tracer, fix_lags, traced_functions  # noqa: E402
from repro import obs  # noqa: E402
from workloads import (FLEET_CRITICAL, LAYERS, SINGLE_CRITICAL,  # noqa: E402
                       WORKLOADS, mismatches, run_pass)

TINY = {
    "short-gamma": CorpusSpec(devices=60, records_per_device=20),
    "large-gamma": CorpusSpec(devices=4, records_per_device=200),
    "aprad-refit": CorpusSpec(devices=100, records_per_device=20, grid=8),
    "fleet-gateway": CorpusSpec(devices=60, records_per_device=20),
}


def tiny(name):
    workload = WORKLOADS[name]
    changes = {"spec": TINY[name]}
    if workload.refit_every:
        changes["refit_every"] = 300
    return dataclasses.replace(workload, **changes)


@pytest.fixture(autouse=True)
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "CACHE_DIR", tmp_path / "cache")
    return tmp_path


def test_corpus_is_seeded():
    spec = TINY["short-gamma"]
    assert np.array_equal(build_rows(spec, 3), build_rows(spec, 3))
    assert not np.array_equal(build_rows(spec, 3), build_rows(spec, 4))


def test_corpus_mix_and_locality():
    from repro.capture.records import CODE_OF
    from repro.net80211.frames import FrameType
    spec = TINY["short-gamma"]
    rows = build_rows(spec, 1)
    kinds = rows["kind"]
    assert (kinds == CODE_OF[FrameType.PROBE_REQUEST]).mean() == 0.3
    assert (kinds == CODE_OF[FrameType.PROBE_RESPONSE]).mean() == 0.4
    assert (kinds == CODE_OF[FrameType.DATA]).mean() == 0.2
    assert (kinds == CODE_OF[FrameType.BEACON]).mean() == 0.1
    assert np.all(np.diff(rows["rx_ts"]) > 0)
    # Each device owns one contiguous slice of the capture.
    probes = rows[kinds == CODE_OF[FrameType.PROBE_REQUEST]]["src"]
    changes = np.count_nonzero(probes[1:] != probes[:-1])
    assert changes == spec.devices - 1


def test_fix_lags_count_first_fix_only():
    handoffs = [(0.0, 10.0), (5.0, 20.0)]
    events = [("a", 1.0, 10.5), ("a", 1.0, 30.0), ("b", 6.0, 21.0)]
    assert sorted(fix_lags(events, handoffs)) == [0.5, 1.0]


@pytest.mark.parametrize("name", sorted(TINY))
def test_pass_matches_oracle(name, tmp_path):
    workload = tiny(name)
    path = corpus.corpus_path(workload.spec, 7)
    oracle = oracle_fixes(workload, 7)
    result = run_pass(workload, path, Tracer(False), tmp_path / "run")
    assert result.frames_ingested == workload.spec.records
    assert oracle and mismatches(result.fixes, oracle) == 0
    assert not any(result.failures.values()), result.failures
    assert len(result.lags_s) > 0 and min(result.lags_s) > 0.0


@pytest.mark.parametrize("name", ["large-gamma", "fleet-gateway"])
def test_traced_layers_add_up(name, tmp_path):
    workload = tiny(name)
    path = corpus.corpus_path(workload.spec, 7)
    tracer = Tracer(True)
    obs.default_recorder().clear()
    with obs.use_recorder(tracer.recorder), traced_functions(tracer):
        result = run_pass(workload, path, tracer, tmp_path / "run")
    table = SpanTable(tracer.spans(), LAYERS)
    critical = FLEET_CRITICAL if workload.fleet else SINGLE_CRITICAL
    self_sum, top_sum = table.critical_sums(table.thread_of(critical[0]),
                                            critical)
    assert self_sum == pytest.approx(top_sum, abs=1e-6)
    assert 0.0 < self_sum <= result.wall_s
    assert table.min_self_s >= -1e-6
    expected = "wire.pack" if workload.fleet else "mloc.probe"
    assert table.calls[expected] > 0
    # The wrappers are gone once the traced pass ends.
    from repro.geometry import kernels
    assert kernels.nonempty_at_scale.__module__ == "repro.geometry.kernels"


def test_refuses_to_run_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload",
         "short-gamma", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""
