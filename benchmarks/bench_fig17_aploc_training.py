"""Figure 17: AP-Loc average error vs. number of training tuples.

Paper: "AP-Loc achieves much better accuracy than the Centroid approach
even when the number of training tuples is fairly small.  For example,
given 19 training tuples, AP-Loc can achieve an average error of only
12.21 meters."  The error falls as the wardriving route densifies.
"""

import numpy as np

from repro.analysis.experiments import run_localization_experiment
from repro.knowledge.wardrive import Wardriver
from repro.localization import APLoc, CentroidLocalizer
from repro.sim.mobility import grid_route



#: Our campus is far denser than the paper's neighborhood (420 APs with
#: 25-60 m ranges), so the sweep extends past the paper's 19 tuples; the
#: 19-tuple point is still reported for the paper comparison.
TUPLE_COUNTS = (19, 63, 120, 208)
#: Training sweeps extend past the AP area so every AP is surrounded by
#: observing tuples (otherwise disc-intersection placement is biased).
ROUTE_MARGIN_M = 40.0


def _route(tuple_count, area_m):
    rows = max(2, int(np.sqrt(tuple_count)))
    per_row = max(2, int(np.ceil(tuple_count / rows)))
    return grid_route(-ROUTE_MARGIN_M, -ROUTE_MARGIN_M,
                      area_m + ROUTE_MARGIN_M, area_m + ROUTE_MARGIN_M,
                      rows, per_row)[:tuple_count]


def test_fig17_aploc_vs_training_tuples(benchmark, campus_experiment, reporter):
    exp = campus_experiment
    oracle = exp.truth_db.observable_from
    wardriver = Wardriver(oracle)

    def evaluate(tuple_count):
        training = wardriver.collect(_route(tuple_count, exp.area_m))
        # Region mode (exact intersection centroid) is the robust M-Loc
        # variant; with estimated AP positions its stability matters.
        aploc = APLoc(training, training_radius_m=exp.r_max,
                      r_max=exp.r_max, solver="revised",
                      min_evidence=exp.aprad_min_evidence,
                      overestimate_factor=exp.aprad_overestimate,
                      mloc_mode="region")
        aploc.fit(exp.corpus)
        rep = run_localization_experiment({"ap-loc": aploc},
                                          exp.cases)["ap-loc"]
        mean = rep.mean_error() if rep.results else float("nan")
        return mean, rep.skipped

    def sweep():
        return {count: evaluate(count) for count in TUPLE_COUNTS}

    results = benchmark(sweep)

    centroid = run_localization_experiment(
        {"centroid": CentroidLocalizer(exp.location_db)},
        exp.cases)["centroid"].mean_error()

    reporter("", "=== Fig 17: AP-Loc error vs #training tuples ===",
           f"{'tuples':>7s} {'mean error':>11s} {'unlocatable':>12s}")
    for count in TUPLE_COUNTS:
        mean, skipped = results[count]
        reporter(f"{count:7d} {mean:9.1f} m {skipped:12d}")
    reporter(f"  Centroid baseline: {centroid:.1f} m"
           f"  (paper: AP-Loc 12.21 m at 19 tuples, beating Centroid"
           f" 17.28 m)")

    errors = [results[count][0] for count in TUPLE_COUNTS]
    # Error decreases as training densifies.
    assert errors[-1] < errors[0]
    # With a moderately dense sweep, AP-Loc beats the Centroid baseline
    # despite starting from zero AP knowledge.
    assert errors[-1] < centroid
