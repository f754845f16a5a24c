"""Canned experiment scenarios shared by benches, examples, and tests.

Two levels of fidelity:

* :func:`build_attack_scenario` — the *full* event-loop world: stations
  scanning, APs answering, frames flowing through the medium into the
  Marauder's-map sniffer.  Used by the examples and integration tests.
* :func:`build_disc_model_experiment` — the *disc-model* experiment the
  accuracy figures need: ground-truth Γ sets from the coverage-disc
  oracle, degraded into the adversary's imperfect knowledge (WiGLE
  position noise, measured-radius noise, missed observations).  This is
  the direct analogue of the paper's Fig 13–17 methodology and runs in
  seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Set

import numpy as np

from repro.analysis.experiments import TestCase
from repro.geometry.point import Point
from repro.knowledge.apdb import ApDatabase
from repro.net80211.ap import AccessPoint
from repro.net80211.mac import MacAddress
from repro.net80211.medium import Medium
from repro.net80211.ssid import Ssid
from repro.net80211.station import PROFILES, MobileStation
from repro.numerics.rng import make_rng, spawn_rngs
from repro.radio.propagation import (
    FreeSpaceModel,
    LogDistanceModel,
    ObstructedModel,
)
from repro.sim.campus import CampusConfig, generate_campus
from repro.sim.mobility import FixedRoute, RandomWaypoint, grid_route
from repro.sim.terrain import Building, Terrain
from repro.sim.world import CampusWorld
from repro.sniffer.receiver import build_marauder_sniffer


@dataclass
class AttackScenario:
    """A fully-wired campus world with a victim walking a route."""

    world: CampusWorld
    truth_db: ApDatabase
    access_points: List[AccessPoint]
    victim: MobileStation
    victim_route: FixedRoute
    seed: int


def build_attack_scenario(seed: int = 7, ap_count: int = 90,
                          area_m: float = 600.0,
                          bystander_count: int = 12) -> AttackScenario:
    """Build the full event-loop scenario (sniffer on the 'roof').

    The sniffer sits at the campus center with the paper's LNA chain on
    channels 1/6/11; a victim station walks a loop; bystanders random-
    waypoint around, generating the background probe traffic AP-Rad
    feeds on.
    """
    rng = make_rng(seed)
    campus_rng, station_rng, *walk_rngs = spawn_rngs(
        rng, 2 + bystander_count)
    config = CampusConfig(width_m=area_m, height_m=area_m,
                          ap_count=ap_count)
    access_points, truth_db = generate_campus(config, campus_rng)

    medium = Medium(propagation=FreeSpaceModel())
    center = Point(area_m / 2.0, area_m / 2.0)
    sniffer = build_marauder_sniffer(center, medium)
    world = CampusWorld(access_points, medium, sniffer=sniffer, seed=seed)

    # The victim: an aggressive scanner walking a rectangular loop.
    margin = 0.15 * area_m
    loop = [
        Point(margin, margin), Point(area_m - margin, margin),
        Point(area_m - margin, area_m - margin),
        Point(margin, area_m - margin), Point(margin, margin),
    ]
    victim_route = FixedRoute(loop, speed_m_s=1.4)
    victim = MobileStation(
        mac=MacAddress.random(station_rng),
        position=loop[0],
        profile=PROFILES["aggressive"],
        preferred_networks=[Ssid("home-wifi-42"), Ssid("CoffeeShopFree")],
    )
    world.add_station(victim, victim_route)

    for walker_rng in walk_rngs:
        profile_name = ["aggressive", "standard", "standard",
                        "conservative"][int(walker_rng.integers(0, 4))]
        walker = RandomWaypoint(0.0, 0.0, area_m, area_m, walker_rng)
        station = MobileStation(
            mac=MacAddress.random(walker_rng),
            position=walker.position,
            profile=PROFILES[profile_name],
        )
        world.add_station(station, walker)

    return AttackScenario(world=world, truth_db=truth_db,
                          access_points=access_points, victim=victim,
                          victim_route=victim_route, seed=seed)


def build_urban_scenario(seed: int = 38, ap_count: int = 90,
                         area_m: float = 500.0,
                         bystander_count: int = 8,
                         block_size_m: float = 70.0,
                         street_width_m: float = 30.0,
                         building_loss_db: float = 14.0
                         ) -> AttackScenario:
    """A GWU-style dense-urban scenario: a Manhattan grid of buildings.

    The paper's second campus sits in downtown Washington; urban
    blockage is exactly why it dismisses signal-strength/AOA methods
    ("obstructing buildings often prevent the signal strength and AOA
    from being accurately measured") while the disc-model attack, which
    only needs *whether* frames arrive, keeps working.  The medium is a
    log-distance channel (n = 2.8) plus per-building penetration loss;
    the victim walks the streets.
    """
    rng = make_rng(seed)
    campus_rng, station_rng, *walk_rngs = spawn_rngs(
        rng, 2 + bystander_count)
    config = CampusConfig(width_m=area_m, height_m=area_m,
                          ap_count=ap_count)
    access_points, truth_db = generate_campus(config, campus_rng)

    terrain = Terrain()
    pitch = block_size_m + street_width_m
    count = int(area_m // pitch)
    for i in range(count):
        for j in range(count):
            x0 = street_width_m + i * pitch
            y0 = street_width_m + j * pitch
            terrain.add_building(Building(
                x0, y0, x0 + block_size_m, y0 + block_size_m,
                loss_db=building_loss_db))
    medium = Medium(ObstructedModel(LogDistanceModel(exponent=2.8),
                                    terrain.obstruction_db))
    center = Point(area_m / 2.0, area_m / 2.0)
    sniffer = build_marauder_sniffer(center, medium)
    world = CampusWorld(access_points, medium, sniffer=sniffer, seed=seed)

    # The victim walks the street grid (between the building rows).
    street_y = street_width_m / 2.0
    loop = [
        Point(street_width_m / 2.0, street_y),
        Point(area_m - street_width_m / 2.0, street_y),
        Point(area_m - street_width_m / 2.0, area_m / 2.0),
        Point(street_width_m / 2.0, area_m / 2.0),
        Point(street_width_m / 2.0, street_y),
    ]
    victim_route = FixedRoute(loop, speed_m_s=1.4)
    victim = MobileStation(
        mac=MacAddress.random(station_rng),
        position=loop[0],
        profile=PROFILES["aggressive"],
        preferred_networks=[Ssid("dc-home"), Ssid("gwu-guest")],
    )
    world.add_station(victim, victim_route)
    for walker_rng in walk_rngs:
        walker = RandomWaypoint(0.0, 0.0, area_m, area_m, walker_rng)
        world.add_station(MobileStation(
            mac=MacAddress.random(walker_rng),
            position=walker.position,
            profile=PROFILES["standard"],
        ), walker)

    return AttackScenario(world=world, truth_db=truth_db,
                          access_points=access_points, victim=victim,
                          victim_route=victim_route, seed=seed)


@dataclass
class DiscModelExperiment:
    """Everything the Fig 13–17 benches consume."""

    truth_db: ApDatabase            # exact locations + true radii
    mloc_db: ApDatabase             # noisy locations + measured radii
    location_db: ApDatabase         # noisy locations only (WiGLE view)
    cases: List[TestCase]           # victim test points with true Γ
    corpus: List[Set[MacAddress]]   # observation corpus for the AP-Rad LP
    training_points: List[Point]    # wardriving route for AP-Loc
    r_max: float
    area_m: float
    #: Recommended AP-Rad settings for this corpus size (see
    #: :class:`repro.localization.radius_lp.RadiusEstimator`).
    aprad_min_evidence: int = 2
    aprad_overestimate: float = 1.2

    def make_aprad(self, solver: str = "revised"):
        """An :class:`~repro.localization.aprad.APRad` wired with the
        scenario's recommended settings (not yet fitted)."""
        from repro.localization import make_localizer

        return make_localizer(
            "ap-rad", database=self.location_db, r_max=self.r_max,
            solver=solver, min_evidence=self.aprad_min_evidence,
            overestimate_factor=self.aprad_overestimate)


def build_disc_model_experiment(
    seed: int = 11,
    ap_count: int = 420,
    area_m: float = 500.0,
    range_min_m: float = 25.0,
    range_max_m: float = 60.0,
    cluster_fraction: float = 0.75,
    cluster_sigma_m: float = 20.0,
    case_count: int = 120,
    extra_corpus: int = 800,
    detection_prob: float = 0.95,
    position_noise_sigma_m: float = 2.0,
    range_noise_frac: float = 0.04,
    range_bias_frac: float = 0.08,
    r_max: float = 80.0,
    training_rows: int = 5,
    training_points_per_row: int = 8,
) -> DiscModelExperiment:
    """Build the disc-model accuracy experiment.

    * Test cases sample the campus interior (a margin keeps the victim
      inside AP coverage, as the paper's walks stayed on campus).
    * The adversary's M-Loc knowledge adds Gaussian noise to positions
      ("WiGLE locations are trilaterated estimates") and multiplicative
      noise to radii ("we obtain the maximum transmission distances ...
      by measuring such distance while traveling around").  Measured
      radii carry a systematic ``range_bias_frac`` overestimate — the
      paper's own recommendation, since Theorem 3 shows underestimates
      collapse the coverage probability.
    * Each AP in a true Γ is *detected* with ``detection_prob`` — the
      sniffer misses some probe responses.
    """
    rng = make_rng(seed)
    campus_rng, noise_rng, case_rng, corpus_rng, drop_rng = spawn_rngs(rng, 5)
    config = CampusConfig(width_m=area_m, height_m=area_m,
                          ap_count=ap_count,
                          range_min_m=range_min_m,
                          range_max_m=range_max_m,
                          cluster_fraction=cluster_fraction,
                          cluster_sigma_m=cluster_sigma_m)
    _, truth_db = generate_campus(config, campus_rng)

    # Adversary knowledge: noisy positions; measured (noisy) radii for
    # M-Loc; no radii at all for AP-Rad.
    noisy_db = truth_db.with_position_noise(noise_rng, position_noise_sigma_m)
    mloc_records = []
    for record in noisy_db:
        true_range = truth_db.get(record.bssid).max_range_m
        factor = max(0.5, 1.0 + range_bias_frac
                     + float(noise_rng.normal(0.0, range_noise_frac)))
        mloc_records.append(replace(record,
                                    max_range_m=true_range * factor))
    mloc_db = ApDatabase(mloc_records)
    location_db = noisy_db.without_ranges()

    margin = 0.18 * area_m

    def sample_point(generator: np.random.Generator,
                     border: float = margin) -> Point:
        return Point(float(generator.uniform(border, area_m - border)),
                     float(generator.uniform(border, area_m - border)))

    def observed_gamma(point: Point,
                       generator: np.random.Generator) -> Set[MacAddress]:
        true_gamma = truth_db.observable_from(point)
        return {bssid for bssid in true_gamma
                if generator.random() < detection_prob}

    cases: List[TestCase] = []
    while len(cases) < case_count:
        point = sample_point(case_rng)
        gamma = observed_gamma(point, drop_rng)
        if gamma:
            cases.append(TestCase.of(gamma, point))

    # The corpus must sweep the *whole* campus: co-observation evidence
    # for border APs only exists if mobiles are observed near them
    # ("over a sufficient amount of time" implies full spatial mixing).
    corpus: List[Set[MacAddress]] = [set(case.observed) for case in cases]
    for _ in range(extra_corpus):
        gamma = observed_gamma(sample_point(corpus_rng, border=0.0),
                               drop_rng)
        if gamma:
            corpus.append(gamma)

    training_points = grid_route(margin, margin, area_m - margin,
                                 area_m - margin, rows=training_rows,
                                 points_per_row=training_points_per_row)

    return DiscModelExperiment(
        truth_db=truth_db, mloc_db=mloc_db, location_db=location_db,
        cases=cases, corpus=corpus, training_points=training_points,
        r_max=r_max, area_m=area_m)
