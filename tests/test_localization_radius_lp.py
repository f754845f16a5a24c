"""Radius-estimation LP tests."""

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.localization.radius_lp import RadiusEstimator
from repro.net80211.mac import MacAddress
from tests.helpers import highs_fit

A = MacAddress(1)
B = MacAddress(2)
C = MacAddress(3)


def collinear_locations():
    return {A: Point(0.0, 0.0), B: Point(100.0, 0.0), C: Point(260.0, 0.0)}


class TestConstraints:
    def test_co_observed_pair_forces_sum(self):
        estimator = RadiusEstimator(collinear_locations(), r_max=100.0)
        estimate = estimator.fit([{A, B}])
        assert estimate.radii[A] + estimate.radii[B] >= 100.0 - 1e-6
        assert estimate.co_observed_pairs == 1

    def test_never_co_observed_bounds_sum(self):
        estimator = RadiusEstimator(collinear_locations(), r_max=100.0)
        estimate = estimator.fit([{A, B}, {B}, {C}])
        # B and C appear but never together: r_B + r_C <= 160.
        assert estimate.radii[B] + estimate.radii[C] <= 160.0 + 1e-6

    def test_far_pairs_skipped(self):
        # A and C are 260 m apart >= 2 * r_max: no constraint between
        # them can bind, so it is not generated.
        estimator = RadiusEstimator(collinear_locations(), r_max=100.0)
        estimate = estimator.fit([{A}, {C}])
        assert estimate.separated_pairs == 0

    def test_co_observed_distance_clamped_to_2rmax(self):
        # Noisy knowledge can make a co-observed pair look farther
        # apart than 2 r_max; the >= constraint must stay feasible.
        locations = {A: Point(0.0, 0.0), B: Point(250.0, 0.0)}
        estimator = RadiusEstimator(locations, r_max=100.0)
        estimate = estimator.fit([{A, B}])
        assert estimate.radii[A] == pytest.approx(100.0, abs=1e-6)
        assert estimate.radii[B] == pytest.approx(100.0, abs=1e-6)

    def test_bounds_respected(self):
        estimator = RadiusEstimator(collinear_locations(), r_max=70.0,
                                    r_min=5.0)
        estimate = estimator.fit([{A, B}, {B, C}])
        for radius in estimate.radii.values():
            assert 5.0 - 1e-9 <= radius <= 70.0 + 1e-9

    def test_maximizes_radii(self):
        # With only the never-co-observed constraint binding, the LP
        # pushes the total to the constraint boundary.
        locations = {A: Point(0.0, 0.0), B: Point(100.0, 0.0)}
        estimator = RadiusEstimator(locations, r_max=80.0)
        estimate = estimator.fit([{A}, {B}])  # both seen, never together
        total = estimate.radii[A] + estimate.radii[B]
        assert total == pytest.approx(100.0, abs=0.01)


class TestEvidenceThreshold:
    def test_min_evidence_suppresses_weak_negatives(self):
        locations = {A: Point(0.0, 0.0), B: Point(100.0, 0.0)}
        # Each AP appears only once: with min_evidence=2 the "<"
        # constraint is not generated and radii rise to r_max.
        estimator = RadiusEstimator(locations, r_max=80.0, min_evidence=2)
        estimate = estimator.fit([{A}, {B}])
        assert estimate.separated_pairs == 0
        assert estimate.radii[A] == pytest.approx(80.0, abs=1e-6)

    def test_min_evidence_validation(self):
        with pytest.raises(ValueError):
            RadiusEstimator({A: Point(0, 0)}, r_max=10.0, min_evidence=0)


class TestOverestimateFactor:
    def test_applies_and_caps(self):
        locations = {A: Point(0.0, 0.0), B: Point(100.0, 0.0)}
        base = RadiusEstimator(locations, r_max=80.0).fit([{A}, {B}])
        inflated = RadiusEstimator(locations, r_max=80.0,
                                   overestimate_factor=1.5).fit([{A}, {B}])
        for bssid in (A, B):
            expected = min(80.0, base.radii[bssid] * 1.5)
            assert inflated.radii[bssid] == pytest.approx(expected,
                                                          abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadiusEstimator({A: Point(0, 0)}, r_max=10.0,
                            overestimate_factor=0.9)


class TestNeighborCap:
    def test_cap_reduces_constraints(self):
        rng = np.random.default_rng(0)
        locations = {MacAddress(i): Point(*rng.uniform(0, 200, 2))
                     for i in range(12)}
        observations = [{m} for m in locations]  # no co-observation
        full = RadiusEstimator(locations, r_max=150.0).fit(observations)
        capped = RadiusEstimator(locations, r_max=150.0,
                                 max_separated_neighbors=2).fit(observations)
        assert capped.separated_pairs <= full.separated_pairs

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            RadiusEstimator({A: Point(0, 0)}, r_max=10.0,
                            max_separated_neighbors=0)


class TestRecoveryQuality:
    @pytest.mark.parametrize("solver", ["revised", "scipy"])
    def test_recovers_radii_on_dense_evidence(self, solver):
        """With full spatial sampling, estimated radii track the truth."""
        rng = np.random.default_rng(4)
        n = 12
        area = 300.0
        true_r = {}
        locations = {}
        for i in range(n):
            mac = MacAddress(i + 1)
            locations[mac] = Point(*(rng.uniform(0, area, 2)))
            true_r[mac] = float(rng.uniform(40.0, 90.0))
        # Dense corpus: 600 uniform points, exact disc observations.
        observations = []
        for _ in range(600):
            p = Point(*(rng.uniform(0, area, 2)))
            gamma = {m for m, loc in locations.items()
                     if loc.distance_to(p) <= true_r[m]}
            if gamma:
                observations.append(gamma)
        estimator = RadiusEstimator(locations, r_max=120.0)
        if solver == "revised":
            radii = estimator.fit(observations).radii
        else:
            radii, _ = highs_fit(estimator, observations)
        errors = [abs(radii[m] - true_r[m]) for m in locations]
        assert np.mean(errors) < 25.0

    def test_solvers_agree(self):
        locations = collinear_locations()
        observations = [{A, B}, {B}, {C}]
        ours = RadiusEstimator(locations, r_max=100.0).fit(observations)
        highs, _ = highs_fit(RadiusEstimator(locations, r_max=100.0),
                             observations)
        total_ours = sum(ours.radii.values())
        total_highs = sum(highs.values())
        assert total_ours == pytest.approx(total_highs, rel=1e-6)
