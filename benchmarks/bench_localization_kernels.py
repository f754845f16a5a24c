"""Localization kernel throughput: one Γ at a time vs one batch.

The M-Loc hot loop is pairwise circle intersection + containment
filtering, computed by the NumPy kernels of ``repro.geometry.kernels``.
This bench times the same Γ-set localizations two ways:

* ``sequential`` — one ``locate`` call per Γ (a batch of one each);
* ``batch`` — one ``locate_batch`` call, which stacks the disc sets of
  equal k into a single kernel dispatch sequence.

Both must return identical estimates, and the bench checks that they
do.  Sweeps k (discs per Γ) × batch size, reporting disc sets/sec per
way.  Run standalone for the JSON report (the tier-1 smoke test
does)::

    PYTHONPATH=src python benchmarks/bench_localization_kernels.py \
        --ks 3,6,10 --batches 1,64,1024 --json out.json

or under pytest-benchmark with the rest of the bench suite.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import FrozenSet, List

import numpy as np

from repro.geometry.point import Point
from repro.knowledge.apdb import ApDatabase, ApRecord
from repro.localization import MLoc
from repro.net80211.mac import MacAddress
from repro.net80211.ssid import Ssid

#: Each cluster holds enough APs for the largest k; clusters are far
#: apart so a Γ never mixes clusters.  "Easy" clusters pack their APs
#: tightly (jitter << range) so every disc overlaps every other; "hard"
#: clusters spread them wide so the raw intersection is empty and M-Loc
#: inflates the radii (exact minimax factor plus one check probe) — the
#: path the paper's noisy-knowledge cases hit.
CLUSTER_SIZE = 10
CLUSTER_SPACING_M = 5000.0
EASY_JITTER_M = 60.0
HARD_JITTER_M = 400.0
RANGE_M = 150.0
#: Fraction of Γ sets drawn from hard clusters (deterministic, every
#: 1/fraction-th gamma).
DEFAULT_HARD_FRACTION = 0.25

DEFAULT_KS = (3, 6, 10)
DEFAULT_BATCHES = (1, 64, 1024)


def _ap_bssid(bank: int, cluster: int, ap: int, clusters: int) -> MacAddress:
    index = (bank * clusters + cluster) * CLUSTER_SIZE + ap
    return MacAddress(0x001B63000000 + index)


def build_database(clusters: int, seed: int = 20090622) -> ApDatabase:
    rng = np.random.default_rng(seed)
    records = []
    for bank, jitter in enumerate((EASY_JITTER_M, HARD_JITTER_M)):
        for c in range(clusters):
            cx = c * CLUSTER_SPACING_M
            cy = bank * (clusters * CLUSTER_SPACING_M)
            for a in range(CLUSTER_SIZE):
                bssid = _ap_bssid(bank, c, a, clusters)
                records.append(ApRecord(
                    bssid=bssid,
                    ssid=Ssid(f"bench-ap-{bssid.value:x}"),
                    location=Point(
                        cx + float(rng.uniform(-jitter, jitter)),
                        cy + float(rng.uniform(-jitter, jitter))),
                    max_range_m=RANGE_M + float(rng.uniform(0.0, 40.0)),
                    channel=6))
    return ApDatabase(records)


def build_gammas(k: int, batch: int, clusters: int, seed: int = 7,
                 hard_fraction: float = DEFAULT_HARD_FRACTION
                 ) -> List[FrozenSet[MacAddress]]:
    """``batch`` Γ sets of exactly ``k`` APs, spread over the clusters.

    Every ``round(1 / hard_fraction)``-th Γ comes from a hard cluster
    (empty raw intersection, radius inflation required); the rest
    come from easy clusters.
    """
    rng = np.random.default_rng(seed + k)
    stride = int(round(1.0 / hard_fraction)) if hard_fraction > 0.0 else 0
    gammas = []
    for i in range(batch):
        bank = 1 if stride and i % stride == stride - 1 else 0
        cluster = i % clusters
        members = rng.choice(CLUSTER_SIZE, size=k, replace=False)
        gammas.append(frozenset(
            _ap_bssid(bank, cluster, int(m), clusters) for m in members))
    return gammas


def _time_sets_per_sec(run, batch: int, repeats: int) -> float:
    """Best-of-N throughput; small batches loop to beat timer noise."""
    iters = max(1, 512 // max(1, batch))
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iters):
            run()
        elapsed = time.perf_counter() - start
        if elapsed > 0.0:
            best = max(best, batch * iters / elapsed)
    return best


def assert_identical(sequential, batched) -> None:
    """Sequential ``locate`` and ``locate_batch`` agree bit for bit."""
    if len(sequential) != len(batched):
        raise AssertionError("locate_batch lost or added estimates")
    for one, many in zip(sequential, batched):
        if (one.position != many.position
                or one.inflation_factor != many.inflation_factor
                or one.region.vertices != many.region.vertices):
            raise AssertionError(
                "locate and locate_batch disagree: "
                f"{one.position} vs {many.position}")


def run_cell(localizer: MLoc, gammas: List[FrozenSet[MacAddress]],
             repeats: int) -> dict:
    """Time both ways over one (k, batch) workload."""
    batch = len(gammas)
    assert_identical([localizer.locate(gamma) for gamma in gammas],
                     localizer.locate_batch(gammas))

    def sequential():
        for gamma in gammas:
            localizer.locate(gamma)

    def batched():
        localizer.locate_batch(gammas)

    sequential_rate = _time_sets_per_sec(sequential, batch, repeats)
    batch_rate = _time_sets_per_sec(batched, batch, repeats)
    return {
        "sequential_sets_per_sec": sequential_rate,
        "batch_sets_per_sec": batch_rate,
        "batch_speedup": (batch_rate / sequential_rate
                          if sequential_rate > 0.0 else 0.0),
    }


def run_sweep(ks, batches, repeats: int = 3, clusters: int = 64,
              hard_fraction: float = DEFAULT_HARD_FRACTION) -> dict:
    database = build_database(clusters)
    localizer = MLoc(database)
    results = []
    for k in ks:
        if k > CLUSTER_SIZE:
            raise ValueError(f"k={k} exceeds cluster size {CLUSTER_SIZE}")
        for batch in batches:
            gammas = build_gammas(k, batch, clusters,
                                  hard_fraction=hard_fraction)
            cell = run_cell(localizer, gammas, repeats)
            cell.update({"k": k, "batch": batch})
            results.append(cell)
    # The acceptance cell: the largest workload in the sweep.
    acceptance = max(results, key=lambda c: (c["k"], c["batch"]))
    return {
        "bench": "localization_kernels",
        "config": {
            "ks": list(ks),
            "batches": list(batches),
            "repeats": repeats,
            "clusters": clusters,
            "hard_fraction": hard_fraction,
        },
        "results": results,
        "acceptance": {
            "k": acceptance["k"],
            "batch": acceptance["batch"],
            "batch_speedup": acceptance["batch_speedup"],
        },
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry point (pytest benchmarks/ --benchmark-only)
# ----------------------------------------------------------------------

def test_localization_kernel_speedup(benchmark, reporter):
    database = build_database(clusters=16)
    localizer = MLoc(database)
    gammas = build_gammas(10, 256, clusters=16)

    benchmark(lambda: localizer.locate_batch(gammas))

    report = run_sweep(ks=(10,), batches=(256,), repeats=2, clusters=16)
    cell = report["results"][0]
    reporter("", "=== Localization kernels: sequential vs batch ===",
             f"  k=10 batch=256 sequential : "
             f"{cell['sequential_sets_per_sec']:10.0f} sets/s",
             f"  k=10 batch=256 batch      : "
             f"{cell['batch_sets_per_sec']:10.0f} sets/s "
             f"({cell['batch_speedup']:.1f}x)")
    assert cell["batch_speedup"] > 1.0
    reporter("Batched complex128 kernels amortize NumPy dispatch over"
             " the whole micro-batch.")


# ----------------------------------------------------------------------
# Standalone JSON mode (the tier-1 smoke invocation)
# ----------------------------------------------------------------------

def _int_list(text: str):
    return tuple(int(part) for part in text.split(",") if part)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Localization throughput: sequential vs batch")
    parser.add_argument("--ks", type=_int_list, default=DEFAULT_KS,
                        help="comma-separated discs-per-Γ sizes")
    parser.add_argument("--batches", type=_int_list,
                        default=DEFAULT_BATCHES,
                        help="comma-separated batch sizes")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per cell (best is reported)")
    parser.add_argument("--clusters", type=int, default=64,
                        help="AP clusters backing the synthetic Γ sets")
    parser.add_argument("--hard-fraction", type=float,
                        default=DEFAULT_HARD_FRACTION,
                        help="fraction of Γ sets with an empty raw"
                             " intersection (triggers radius"
                             " inflation)")
    parser.add_argument("--json", metavar="FILE",
                        help="write the sweep as JSON to FILE")
    args = parser.parse_args(argv)

    report = run_sweep(args.ks, args.batches, repeats=args.repeats,
                       clusters=args.clusters,
                       hard_fraction=args.hard_fraction)
    print(f"{'k':>3} {'batch':>6} {'seq/s':>10} {'batch/s':>10} "
          f"{'bx':>6}")
    for cell in report["results"]:
        print(f"{cell['k']:>3} {cell['batch']:>6} "
              f"{cell['sequential_sets_per_sec']:>10.0f} "
              f"{cell['batch_sets_per_sec']:>10.0f} "
              f"{cell['batch_speedup']:>5.1f}x")
    acceptance = report["acceptance"]
    print(f"acceptance cell k={acceptance['k']} "
          f"batch={acceptance['batch']}: "
          f"batch speedup {acceptance['batch_speedup']:.2f}x")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"JSON written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
