"""Quickstart: locate one WiFi device with the digital Marauder's map.

Builds a simulated campus, runs the sniffing system for four minutes,
and localizes the victim three ways (M-Loc / AP-Rad / Centroid) from
exactly the evidence a real deployment would have: the set of APs the
victim was observed communicating with.

Run:  python examples/quickstart.py
"""

from repro.localization import APRad, CentroidLocalizer, MLoc
from repro.sim import build_attack_scenario


def main() -> None:
    # 1. The world: a 600 m campus, 90 APs, a victim walking a loop,
    #    and the paper's receiver chain (15 dBi antenna + LNA + 4-way
    #    splitter + three cards on channels 1/6/11) on the "roof".
    scenario = build_attack_scenario(seed=7)
    world = scenario.world

    # 2. Monitor for four minutes.
    world.run(duration_s=240.0)
    store = world.sniffer.store
    print(f"Captured {store.frame_count} frames; "
          f"{len(store.seen_mobiles)} mobiles observed, "
          f"{len(store.probing_mobiles)} probing.")

    # 3. The attack evidence: Γ = the APs the victim communicated with
    #    in the last observation window.
    gamma = store.gamma(scenario.victim.mac, at_time=world.now)
    print(f"Victim {scenario.victim.mac}: "
          f"communicable with {len(gamma)} APs right now.")

    truth = scenario.victim.position

    # 4a. M-Loc: AP locations and radii known (ground-truth database).
    mloc_estimate = MLoc(scenario.truth_db).locate(gamma)
    print(f"M-Loc    : {_fmt(mloc_estimate.position)}  "
          f"error {mloc_estimate.error_to(truth):5.1f} m")

    # 4b. AP-Rad: only locations known; radii estimated by linear
    #     programming over everything the sniffer saw.
    aprad = APRad(scenario.truth_db.without_ranges(), r_max=150.0,
                  min_evidence=2, overestimate_factor=1.2)
    aprad.fit(store.corpus())
    aprad_estimate = aprad.locate(gamma)
    print(f"AP-Rad   : {_fmt(aprad_estimate.position)}  "
          f"error {aprad_estimate.error_to(truth):5.1f} m")

    # 4c. Centroid baseline.
    centroid_estimate = CentroidLocalizer(
        scenario.truth_db.without_ranges()).locate(gamma)
    print(f"Centroid : {_fmt(centroid_estimate.position)}  "
          f"error {centroid_estimate.error_to(truth):5.1f} m")

    print(f"Truth    : {_fmt(truth)}")


def _fmt(point) -> str:
    return f"({point.x:6.1f}, {point.y:6.1f})"


if __name__ == "__main__":
    main()
