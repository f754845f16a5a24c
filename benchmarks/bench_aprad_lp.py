"""AP-Rad radius-LP throughput: cold fit vs warm incremental re-fit.

The radius LP is re-solved every time the attack corpus grows.  This
bench times two ways of absorbing the same evidence with the sparse
revised-simplex engine:

* ``cold``        — a full fit over the whole corpus (rebuilds and
  re-solves the full system);
* ``incremental`` — the streaming path: the estimator already holds
  the pre-delta corpus and LP basis, then ``ingest`` + warm-started
  ``refit`` folds the delta in.

Sweeps AP count.  Every cell cross-checks that both paths land on the
same radii (to 1e-6, with a tie-break making the LP optimum unique);
standalone, the script exits 1 when any cell disagrees.  Each cell also
reports the pivots, phase-1 pivots and elastic breakpoints passed of
the cold fit and of the warm refit, read from the solver's
``repro.lp.revised.*`` counters (the cold fit starts from a feasible
basis, so its phase 1 should read 0; a warm refit's phase 1 comes from
appended rows the last radii violate).

Standalone, the script also solves the paper-scale campus LP
(``build_disc_model_experiment(seed=11)``, about 25,700 rows) and
reports the in-tree solver's pivots, breakpoints and solve seconds
beside HiGHS's seconds on the same LP; it exits 1 unless both reach
one objective (to 1e-9 relative) and the in-tree solve takes at most
10x HiGHS's time.  Run standalone for the JSON report (the tier-1
smoke test does)::

    PYTHONPATH=src python benchmarks/bench_aprad_lp.py \
        --aps 50,100,200 --observations 400 --json out.json

or under pytest-benchmark with the rest of the bench suite.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, FrozenSet, List

import numpy as np

from repro import obs
from repro.geometry.point import Point
from repro.localization.radius_lp import RadiusEstimator
from repro.net80211.mac import MacAddress
from repro.sim.scenarios import build_disc_model_experiment

R_MAX = 150.0
TRUE_RADIUS = 90.0
#: Density of the synthetic deployment (APs per square of this side).
AREA_PER_AP = 150.0
#: Uniqueness perturbation so "same radii" is well-defined across cold
#: and warm solves (alternate optima are routine in this LP).
TIE_BREAK = 1e-7
#: Neighbor cap bounding the separated-pair rows, as a deployment would.
MAX_NEIGHBORS = 6
#: Fraction of the corpus treated as the streaming delta (one engine
#: re-fit interval's worth of fresh evidence).
DELTA_FRACTION = 0.05

DEFAULT_APS = (50, 100, 200)
DEFAULT_OBSERVATIONS = 400
#: The campus LP's seed, and its bound on in-tree / HiGHS solve time.
CAMPUS_SEED = 11
CAMPUS_MAX_RATIO = 10.0


def build_locations(ap_count: int, seed: int = 20090622
                    ) -> Dict[MacAddress, Point]:
    """A jittered-uniform deployment at constant density."""
    rng = np.random.default_rng(seed + ap_count)
    side = AREA_PER_AP * float(np.sqrt(ap_count))
    return {
        MacAddress(0x001B63000000 + i):
            Point(float(rng.uniform(0.0, side)),
                  float(rng.uniform(0.0, side)))
        for i in range(ap_count)
    }


def build_corpus(locations: Dict[MacAddress, Point], count: int,
                 seed: int = 7) -> List[FrozenSet[MacAddress]]:
    """Observation Γ sets from uniform probes with exact disc coverage."""
    rng = np.random.default_rng(seed)
    coords = np.array([[p.x, p.y] for p in locations.values()])
    macs = list(locations)
    lo = coords.min(axis=0) - 40.0
    hi = coords.max(axis=0) + 40.0
    corpus: List[FrozenSet[MacAddress]] = []
    while len(corpus) < count:
        probe = rng.uniform(lo, hi)
        dist = np.hypot(*(coords - probe).T)
        members = np.nonzero(dist <= TRUE_RADIUS)[0]
        if members.size:
            corpus.append(frozenset(macs[i] for i in members))
    return corpus


def make_estimator(locations) -> RadiusEstimator:
    return RadiusEstimator(locations, r_max=R_MAX,
                           max_separated_neighbors=MAX_NEIGHBORS,
                           tie_break=TIE_BREAK)


def _best_seconds(run, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def run_cell(ap_count: int, observations: int, repeats: int) -> dict:
    """Time both paths over one (AP count, corpus size) workload."""
    locations = build_locations(ap_count)
    corpus = build_corpus(locations, observations)
    delta_size = max(1, int(len(corpus) * DELTA_FRACTION))
    initial, delta = corpus[:-delta_size], corpus[-delta_size:]

    cold_est = make_estimator(locations)
    # The untimed first fit also loads the solver's lazy imports; its
    # own registry isolates its pivot counts.
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        cold = cold_est.fit(corpus)
    counters = registry.snapshot()["counters"]
    cold_seconds = _best_seconds(lambda: cold_est.fit(corpus), repeats)

    # The streaming measurement: the estimator has already absorbed the
    # initial corpus; the timed unit is ingest(delta) + warm refit —
    # what one re-fit costs inside the engine loop.
    warm_seconds = float("inf")
    for _ in range(repeats):
        warm_est = make_estimator(locations)
        warm_est.fit(initial)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            start = time.perf_counter()
            warm_est.ingest(delta)
            warm = warm_est.refit()
            warm_seconds = min(warm_seconds, time.perf_counter() - start)
    warm_counters = registry.snapshot()["counters"]

    max_diff = max(abs(warm.radii[m] - cold.radii[m]) for m in locations)
    return {
        "aps": ap_count,
        "observations": observations,
        "lp_rows": cold_est.lp_rows,
        "delta_observations": delta_size,
        "cold_seconds": cold_seconds,
        "incremental_seconds": warm_seconds,
        "incremental_vs_cold": (cold_seconds / warm_seconds
                                if warm_seconds > 0.0 else 0.0),
        "warm_started": bool(warm.warm_started),
        "cold_pivots": int(counters["repro.lp.revised.pivots"]),
        "cold_phase1_pivots": int(
            counters["repro.lp.revised.phase1_pivots"]),
        "cold_breakpoints": int(counters["repro.lp.revised.breakpoints"]),
        "incremental_pivots": int(warm_counters["repro.lp.revised.pivots"]),
        "incremental_phase1_pivots": int(
            warm_counters["repro.lp.revised.phase1_pivots"]),
        "incremental_breakpoints": int(
            warm_counters["repro.lp.revised.breakpoints"]),
        "max_radius_diff_m": float(max_diff),
        "radii_agree": bool(max_diff <= 1e-6),
    }


def _objective(estimate) -> float:
    """The radius LP's objective from a fit: unit radius weights (no
    tie-break) and the estimator's slack penalty of 10."""
    return sum(estimate.radii.values()) - 10.0 * estimate.total_slack


def run_campus(repeats: int) -> dict:
    """The paper-scale campus LP, in-tree against HiGHS (best of
    ``repeats`` solves each)."""
    exp = build_disc_model_experiment(seed=CAMPUS_SEED)
    locations = {record.bssid: record.location
                 for record in exp.location_db}
    fits = {}
    seconds = {}
    for solver in ("revised", "scipy"):
        estimator = RadiusEstimator(locations, r_max=exp.r_max,
                                    solver=solver,
                                    min_evidence=exp.aprad_min_evidence)
        seconds[solver] = float("inf")
        for _ in range(repeats):
            registry = obs.MetricsRegistry()
            with obs.use_registry(registry):
                fits[solver] = estimator.fit(exp.corpus)
            seconds[solver] = min(seconds[solver],
                                  fits[solver].solve_seconds)
        if solver == "revised":
            counters = registry.snapshot()["counters"]
    objective = _objective(fits["revised"])
    reference = _objective(fits["scipy"])
    ratio = seconds["revised"] / seconds["scipy"]
    relative = abs(objective - reference) / abs(reference)
    return {
        "seed": CAMPUS_SEED,
        "lp_rows": fits["revised"].lp_rows,
        "pivots": int(counters["repro.lp.revised.pivots"]),
        "breakpoints": int(counters["repro.lp.revised.breakpoints"]),
        "seconds": seconds["revised"],
        "highs_seconds": seconds["scipy"],
        "vs_highs": ratio,
        "objective_rel_diff": relative,
        "ok": bool(relative <= 1e-9 and ratio <= CAMPUS_MAX_RATIO),
    }


def run_sweep(aps, observations: int, repeats: int = 2) -> dict:
    results = [run_cell(ap_count, observations, repeats)
               for ap_count in aps]
    # Acceptance: the largest deployment in the sweep.
    acceptance = max(results, key=lambda c: c["aps"])
    return {
        "bench": "aprad_lp",
        "config": {
            "aps": list(aps),
            "observations": observations,
            "repeats": repeats,
            "r_max": R_MAX,
            "true_radius": TRUE_RADIUS,
            "delta_fraction": DELTA_FRACTION,
            "max_separated_neighbors": MAX_NEIGHBORS,
            "tie_break": TIE_BREAK,
        },
        "results": results,
        "acceptance": {
            "aps": acceptance["aps"],
            "incremental_vs_cold": acceptance["incremental_vs_cold"],
            "radii_agree": all(c["radii_agree"] for c in results),
        },
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry point (pytest benchmarks/ --benchmark-only)
# ----------------------------------------------------------------------

def test_aprad_incremental_refit_speedup(benchmark, reporter):
    locations = build_locations(120)
    corpus = build_corpus(locations, 300)
    delta = corpus[-30:]
    estimator = make_estimator(locations)
    estimator.fit(corpus[:-30])

    def refit_delta():
        estimator.ingest(delta)
        return estimator.refit()

    benchmark(refit_delta)

    report = run_sweep(aps=(60, 120), observations=250, repeats=1)
    reporter("", "=== AP-Rad LP: cold fit vs incremental re-fit ===")
    for cell in report["results"]:
        reporter(
            f"  aps={cell['aps']:>4} rows={cell['lp_rows']:>5}: "
            f"cold {cell['cold_seconds'] * 1e3:8.1f} ms | "
            f"incremental {cell['incremental_seconds'] * 1e3:7.1f} ms "
            f"({cell['incremental_vs_cold']:.1f}x)")
    assert report["acceptance"]["radii_agree"]
    assert report["acceptance"]["incremental_vs_cold"] > 1.0
    reporter("Warm-started re-fits pay for the evidence delta, not the"
             " accumulated corpus.")


# ----------------------------------------------------------------------
# Standalone JSON mode (the tier-1 smoke invocation)
# ----------------------------------------------------------------------

def _int_list(text: str):
    return tuple(int(part) for part in text.split(",") if part)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="AP-Rad radius LP: cold fit vs incremental re-fit")
    parser.add_argument("--aps", type=_int_list, default=DEFAULT_APS,
                        help="comma-separated AP deployment sizes")
    parser.add_argument("--observations", type=int,
                        default=DEFAULT_OBSERVATIONS,
                        help="observation corpus size per cell")
    parser.add_argument("--repeats", type=int, default=2,
                        help="runs per timing (best is reported)")
    parser.add_argument("--json", metavar="FILE",
                        help="write the sweep as JSON to FILE")
    args = parser.parse_args(argv)

    report = run_sweep(args.aps, args.observations,
                       repeats=args.repeats)
    report["campus"] = campus = run_campus(args.repeats)
    print(f"{'aps':>5} {'rows':>6} {'pivots':>7} {'phase1':>7} "
          f"{'breaks':>7} {'incr':>5} {'phase1':>7} {'breaks':>7} "
          f"{'cold ms':>9} {'incr ms':>8} {'ix':>6} {'agree':>6}")
    for cell in report["results"]:
        print(f"{cell['aps']:>5} {cell['lp_rows']:>6} "
              f"{cell['cold_pivots']:>7} {cell['cold_phase1_pivots']:>7} "
              f"{cell['cold_breakpoints']:>7} "
              f"{cell['incremental_pivots']:>5} "
              f"{cell['incremental_phase1_pivots']:>7} "
              f"{cell['incremental_breakpoints']:>7} "
              f"{cell['cold_seconds'] * 1e3:>9.1f} "
              f"{cell['incremental_seconds'] * 1e3:>8.1f} "
              f"{cell['incremental_vs_cold']:>5.1f}x "
              f"{'yes' if cell['radii_agree'] else 'NO':>6}")
    acceptance = report["acceptance"]
    print(f"acceptance cell aps={acceptance['aps']}: "
          f"incremental speedup "
          f"{acceptance['incremental_vs_cold']:.2f}x vs cold fit, "
          f"radii agree: {acceptance['radii_agree']}")
    print(f"campus seed={campus['seed']} rows={campus['lp_rows']}: "
          f"{campus['pivots']} pivots, {campus['breakpoints']} "
          f"breakpoints, {campus['seconds']:.2f} s vs HiGHS "
          f"{campus['highs_seconds']:.2f} s "
          f"({campus['vs_highs']:.1f}x, bound "
          f"{CAMPUS_MAX_RATIO:.0f}x), objective rel diff "
          f"{campus['objective_rel_diff']:.1e}: "
          f"{'ok' if campus['ok'] else 'FAIL'}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"JSON written to {args.json}")
    return 0 if acceptance["radii_agree"] and campus["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
