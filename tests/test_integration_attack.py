"""End-to-end integration tests: the full Marauder's-map attack.

These exercise the complete pipeline the paper describes: stations
probing → APs responding → the receiver chain capturing frames →
observation database → localization algorithms → map display, with
assertions on the paper's qualitative claims at every stage.
"""

import numpy as np
import pytest

from repro.analysis.experiments import TestCase, run_localization_experiment
from repro.localization import (
    APLoc,
    APRad,
    CentroidLocalizer,
    MLoc,
)
from repro.knowledge.wardrive import Wardriver
from repro.sim.mobility import grid_route
from repro.sim.scenarios import (
    build_attack_scenario,
    build_disc_model_experiment,
)


@pytest.fixture(scope="module")
def experiment():
    """A smaller copy of the Fig 13-16 experiment (fast but meaningful)."""
    return build_disc_model_experiment(seed=17, ap_count=200,
                                       area_m=400.0, case_count=60,
                                       extra_corpus=500)


@pytest.fixture(scope="module")
def reports(experiment):
    aprad = experiment.make_aprad()
    aprad.fit(experiment.corpus)
    localizers = {
        "m-loc": MLoc(experiment.mloc_db),
        "ap-rad": aprad,
        "centroid": CentroidLocalizer(experiment.location_db),
    }
    return run_localization_experiment(localizers, experiment.cases)


class TestAccuracyOrdering:
    def test_fig13_error_ordering(self, reports):
        """The paper's headline: M-Loc < AP-Rad < Centroid."""
        assert (reports["m-loc"].mean_error()
                < reports["ap-rad"].mean_error()
                < reports["centroid"].mean_error())

    def test_errors_are_campus_scale(self, reports):
        # Tens of meters, like the paper's 9-17 m — not hundreds.
        for report in reports.values():
            assert report.mean_error() < 60.0

    def test_fig14_mloc_error_decreases_with_k(self, reports):
        report = reports["m-loc"]
        low_k = report.mean_error_vs_min_k(1)
        high_k = report.mean_error_vs_min_k(10)
        assert high_k is not None
        assert high_k < low_k

    def test_fig15_aprad_area_larger(self, reports):
        assert (reports["ap-rad"].mean_area_vs_min_k(4)
                > reports["m-loc"].mean_area_vs_min_k(4))

    def test_fig16_aprad_coverage_lower(self, reports):
        assert (reports["ap-rad"].coverage_probability_vs_min_k(1)
                < reports["m-loc"].coverage_probability_vs_min_k(1))

    def test_mloc_coverage_high(self, reports):
        assert reports["m-loc"].coverage_probability_vs_min_k(1) > 0.8


class TestApLocPipeline:
    def test_fig17_error_decreases_with_training(self, experiment):
        oracle = experiment.truth_db.observable_from
        margin = 40.0

        def aploc_error(tuple_count):
            rows = max(2, int(np.sqrt(tuple_count)))
            per_row = max(2, int(np.ceil(tuple_count / rows)))
            route = grid_route(-margin, -margin,
                               experiment.area_m + margin,
                               experiment.area_m + margin,
                               rows, per_row)[:tuple_count]
            training = Wardriver(oracle).collect(route)
            aploc = APLoc(training, training_radius_m=experiment.r_max,
                          r_max=experiment.r_max,
                          min_evidence=experiment.aprad_min_evidence,
                          overestimate_factor=experiment.aprad_overestimate)
            aploc.fit(experiment.corpus)
            report = run_localization_experiment(
                {"ap-loc": aploc}, experiment.cases)["ap-loc"]
            if not report.results:
                return float("inf")
            return report.mean_error()

        sparse = aploc_error(16)
        dense = aploc_error(64)
        assert dense < sparse
        assert dense < 50.0


class TestFullWorldPipeline:
    def test_victim_located_from_live_capture(self):
        scenario = build_attack_scenario(seed=9, ap_count=80,
                                         area_m=500.0, bystander_count=6)
        scenario.world.run(duration_s=180.0)
        store = scenario.world.sniffer.store
        gamma = store.gamma(scenario.victim.mac,
                            at_time=scenario.world.now)
        assert gamma
        estimate = MLoc(scenario.truth_db).locate(gamma)
        error = estimate.error_to(scenario.victim.position)
        assert error < 80.0

    def test_bystanders_also_tracked(self):
        """The Marauder's map sees *everyone*, not just the victim."""
        scenario = build_attack_scenario(seed=9, ap_count=80,
                                         area_m=500.0, bystander_count=6)
        scenario.world.run(duration_s=240.0)
        store = scenario.world.sniffer.store
        observations = store.all_observations()
        # Most of the 7 devices (victim + 6) produce usable evidence.
        assert len(observations) >= 4

    def test_observation_store_feeds_aprad(self):
        scenario = build_attack_scenario(seed=9, ap_count=80,
                                         area_m=500.0, bystander_count=6)
        scenario.world.run(duration_s=240.0)
        corpus = scenario.world.sniffer.store.corpus()
        assert corpus
        aprad = APRad(scenario.truth_db.without_ranges(), r_max=150.0)
        aprad.fit(corpus)
        gamma = scenario.world.sniffer.store.gamma(scenario.victim.mac)
        estimate = aprad.locate(gamma)
        assert estimate is not None
