"""Wardriving + AP-Loc: attacking with *no* prior AP knowledge.

The adversary first warwalks a lawnmower route through the campus,
collecting training tuples (GPS fix + observed AP set).  AP-Loc then
(1) places every AP by intersecting training-location discs, (2)
estimates radii with the AP-Rad linear program, and (3) localizes the
monitored mobiles — all without ever touching WiGLE or the ground-truth
database.

Run:  python examples/wardriving_aploc.py
"""

import numpy as np

from repro.analysis import run_localization_experiment
from repro.knowledge.wardrive import Wardriver
from repro.localization import APLoc, CentroidLocalizer, MLoc
from repro.sim import grid_route
from repro.sim.scenarios import build_disc_model_experiment


def main() -> None:
    # A denser, smaller neighborhood (the paper's training experiments
    # covered "the neighborhood of the monitoring system").
    exp = build_disc_model_experiment(seed=31, ap_count=160, area_m=320.0,
                                      case_count=80, extra_corpus=500)

    # --- Training phase: warwalk a grid route -------------------------
    oracle = exp.truth_db.observable_from  # what the sniffing tool sees
    wardriver = Wardriver(oracle)

    for tuple_count in (9, 19, 35, 63):
        rows = max(2, int(np.sqrt(tuple_count)))
        per_row = max(2, int(np.ceil(tuple_count / rows)))
        route = grid_route(10.0, 10.0, exp.area_m - 10.0,
                           exp.area_m - 10.0, rows, per_row)[:tuple_count]
        training = wardriver.collect(route)

        # --- Attack phase: AP-Loc end to end -------------------------
        aploc = APLoc(training, training_radius_m=exp.r_max,
                      r_max=exp.r_max,
                      min_evidence=exp.aprad_min_evidence,
                      overestimate_factor=exp.aprad_overestimate)
        aploc.fit(exp.corpus)

        # How well did AP-Loc place the APs themselves?
        placements = aploc.estimate_ap_locations()
        placement_errors = [
            exp.truth_db.get(bssid).location.distance_to(location)
            for bssid, location in placements.items()
        ]
        report = run_localization_experiment({"ap-loc": aploc},
                                             exp.cases)["ap-loc"]
        print(f"{tuple_count:3d} training tuples: "
              f"{len(placements):3d} APs placed "
              f"(median placement error "
              f"{np.median(placement_errors):5.1f} m) -> "
              f"mobile error {report.mean_error():6.2f} m "
              f"({report.skipped} unlocatable)")

    # Reference: the knowledge-rich algorithms on the same cases.
    reports = run_localization_experiment(
        {"m-loc": MLoc(exp.mloc_db),
         "centroid": CentroidLocalizer(exp.location_db)},
        exp.cases)
    print(f"\nReference: M-Loc {reports['m-loc'].mean_error():.2f} m, "
          f"Centroid {reports['centroid'].mean_error():.2f} m")
    print("Paper: AP-Loc reaches 12.21 m with only 19 training tuples, "
          "already beating Centroid.")


if __name__ == "__main__":
    main()
