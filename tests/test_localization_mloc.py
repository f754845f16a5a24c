"""M-Loc tests: the paper's pseudocode, fallbacks, and invariants."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.geometry import kernels
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.knowledge.apdb import ApDatabase
from repro.localization.mloc import MLoc

from tests.helpers import make_record, reference_is_empty


class TestPaperAlgorithm:
    def test_locates_center_of_square(self, square_db):
        estimate = MLoc(square_db).locate(square_db.bssids)
        # Perfect symmetric knowledge: the estimate is the exact center.
        assert estimate.position.x == pytest.approx(50.0, abs=1e-6)
        assert estimate.position.y == pytest.approx(50.0, abs=1e-6)
        assert estimate.used_ap_count == 4
        assert estimate.algorithm == "m-loc"

    def test_region_covers_truth_with_exact_knowledge(self, square_db):
        truth = Point(60.0, 45.0)
        gamma = square_db.observable_from(truth)
        estimate = MLoc(square_db).locate(gamma)
        assert estimate.covers(truth)
        assert estimate.error_to(truth) < 80.0

    def test_two_ap_lens(self):
        db = ApDatabase([make_record(0, 0.0, 0.0, 60.0),
                         make_record(1, 80.0, 0.0, 60.0)])
        estimate = MLoc(db).locate(db.bssids)
        # Lens between the two circles: centered on the axis midpoint.
        assert estimate.position.x == pytest.approx(40.0, abs=1e-6)
        assert estimate.position.y == pytest.approx(0.0, abs=1e-6)

    def test_single_ap_returns_ap_location(self):
        db = ApDatabase([make_record(0, 30.0, 40.0, 50.0)])
        estimate = MLoc(db).locate(db.bssids)
        # Δ is empty (no pairs); documented fallback: region centroid,
        # which for one disc is the AP location (the nearest-AP case).
        assert estimate.position == Point(30.0, 40.0)
        assert estimate.area_m2 == pytest.approx(math.pi * 50.0 ** 2)

    def test_unknown_aps_skipped(self, square_db):
        from repro.net80211.mac import MacAddress

        gamma = set(square_db.bssids) | {MacAddress(0xDEAD)}
        estimate = MLoc(square_db).locate(gamma)
        assert estimate.used_ap_count == 4

    def test_no_known_aps_returns_none(self, square_db):
        from repro.net80211.mac import MacAddress

        assert MLoc(square_db).locate({MacAddress(0xDEAD)}) is None

    def test_records_without_range_use_fallback(self):
        db = ApDatabase([make_record(0, 0.0, 0.0),
                         make_record(1, 80.0, 0.0)])
        estimate = MLoc(db, fallback_range_m=60.0).locate(db.bssids)
        assert estimate.used_ap_count == 2
        assert estimate.position.x == pytest.approx(40.0, abs=1e-6)

    def test_records_without_range_and_fallback_skipped(self):
        db = ApDatabase([make_record(0, 0.0, 0.0, 50.0),
                         make_record(1, 30.0, 0.0)])
        estimate = MLoc(db).locate(db.bssids)
        assert estimate.used_ap_count == 1

    def test_invalid_mode(self, square_db):
        with pytest.raises(ValueError):
            MLoc(square_db, mode="magic")


class TestModes:
    def test_vertex_vs_region_close_for_symmetric_case(self, square_db):
        gamma = square_db.bssids
        vertex = MLoc(square_db, mode="vertex").locate(gamma)
        region = MLoc(square_db, mode="region").locate(gamma)
        assert vertex.position.distance_to(region.position) < 1.0

    def test_region_mode_is_exact_centroid(self):
        db = ApDatabase([make_record(0, 0.0, 0.0, 60.0),
                         make_record(1, 80.0, 0.0, 60.0)])
        estimate = MLoc(db, mode="region").locate(db.bssids)
        rng = np.random.default_rng(0)
        mc = estimate.region.monte_carlo_centroid(rng, samples=40000)
        assert estimate.position.distance_to(mc) < 1.0


class TestEmptyIntersectionFallbacks:
    def test_inflation_recovers_position(self):
        # Slightly-too-small radii: discs don't quite meet.
        db = ApDatabase([make_record(0, 0.0, 0.0, 49.0),
                         make_record(1, 100.0, 0.0, 49.0)])
        estimate = MLoc(db).locate(db.bssids)
        assert estimate.region_empty
        assert estimate.inflation_factor > 1.0
        # Inflated estimate lands near the midpoint.
        assert estimate.position.x == pytest.approx(50.0, abs=2.0)

    def test_inflation_disabled_falls_back_to_ap_mean(self):
        db = ApDatabase([make_record(0, 0.0, 0.0, 40.0),
                         make_record(1, 100.0, 0.0, 40.0)])
        estimate = MLoc(db, inflate_to_feasible=False).locate(db.bssids)
        assert estimate.region_empty
        assert estimate.inflation_factor == 1.0
        assert estimate.position == Point(50.0, 0.0)

    def test_empty_region_never_covers(self):
        db = ApDatabase([make_record(0, 0.0, 0.0, 40.0),
                         make_record(1, 100.0, 0.0, 40.0)])
        estimate = MLoc(db).locate(db.bssids)
        assert not estimate.covers(Point(50.0, 0.0))
        assert estimate.area_m2 == 0.0


@st.composite
def weighted_disc_sets(draw):
    """k = 2…72 discs with independent radii, mostly not intersecting."""
    k = draw(st.integers(min_value=2, max_value=72))
    coord = st.floats(min_value=0.0, max_value=600.0,
                      allow_nan=False, allow_infinity=False)
    radius = st.floats(min_value=20.0, max_value=150.0,
                       allow_nan=False, allow_infinity=False)
    return [Circle(Point(draw(coord), draw(coord)), draw(radius))
            for _ in range(k)]


def nonempty_at(discs, scale):
    """Both oracles agree; the scalar one only where it is cheap."""
    centers, radii = kernels.discs_as_arrays(discs)
    kernel = kernels.nonempty_at_scale(
        kernels.pair_geometry(centers, radii), scale)
    if len(discs) <= 8:
        scaled = [Circle(d.center, d.radius * scale) for d in discs]
        assert (not reference_is_empty(scaled)) == kernel
    return kernel


def inflation_factor(discs):
    """MLoc's inflation factor for ``discs`` (``None`` when hopeless)."""
    inflation = MLoc._smallest_feasible_inflation(discs)
    return None if inflation is None else inflation[0]


def disc_pair(gap, radius):
    return [Circle(Point(0.0, 0.0), radius), Circle(Point(gap, 0.0), radius)]


class TestInflationFactor:
    """The exact factor keeps the contract the bisection gave."""

    @settings(max_examples=60, deadline=None)
    @given(weighted_disc_sets())
    def test_factor_is_feasible_and_tight(self, discs):
        with mock.patch.object(MLoc, "_bisect_inflation") as bisect:
            factor = inflation_factor(discs)
        # The check probe always confirms: the bisection never runs.
        assert bisect.call_count == 0
        centers, radii = kernels.discs_as_arrays(discs)
        _, exact = kernels.minimax_scale(centers, radii)
        if factor is None:
            assert max(1.0, exact) + 5e-4 > 16.0
            return
        assert 1.0 < factor <= 16.0
        assert nonempty_at(discs, factor)
        if factor - 1e-3 >= 1.0:
            assert not nonempty_at(discs, factor - 1e-3)

    def test_factor_for_two_discs(self):
        factor = inflation_factor(disc_pair(100.0, 49.0))
        assert factor == pytest.approx(100.0 / 98.0 + 5e-4, rel=1e-12)

    def test_feasible_sets_get_the_margin_only(self):
        factor = inflation_factor(disc_pair(50.0, 60.0))
        assert factor == 1.0 + 5e-4

    def test_hopeless_sets_give_none(self):
        assert inflation_factor(
            disc_pair(1000.0, 10.0)) is None

    def test_failed_probe_falls_back_to_bisection(self):
        # A scale below the true one fails the check probe.
        with mock.patch.object(kernels, "minimax_scale",
                               return_value=(np.zeros(2), 0.5)):
            factor = inflation_factor(
                disc_pair(100.0, 49.0))
            hopeless = inflation_factor(
                disc_pair(1000.0, 10.0))
        assert 100.0 / 98.0 <= factor < 100.0 / 98.0 + 1e-3
        assert hopeless is None

    def test_inflated_estimates_are_counted(self):
        db = ApDatabase([make_record(0, 0.0, 0.0, 49.0),
                         make_record(1, 100.0, 0.0, 49.0),
                         make_record(2, 300.0, 0.0, 60.0),
                         make_record(3, 350.0, 0.0, 60.0)])
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            MLoc(db).locate_batch([db.bssids[:2], db.bssids[2:],
                                   db.bssids[:2]])
        inflated = registry.counter("repro.localization.inflated",
                                    algorithm="m-loc")
        assert inflated.value == 2


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_exact_knowledge_always_covers(self, data):
        """With exact locations and radii, the true position is always
        inside the intersected region (the paper's key soundness
        property)."""
        count = data.draw(st.integers(min_value=1, max_value=6))
        coord = st.floats(min_value=0.0, max_value=200.0,
                          allow_nan=False, allow_infinity=False)
        truth = Point(data.draw(coord), data.draw(coord))
        records = []
        for i in range(count):
            ap = Point(data.draw(coord), data.draw(coord))
            distance = ap.distance_to(truth)
            # Radius at least the distance: the AP really covers truth.
            radius = distance + data.draw(
                st.floats(min_value=1.0, max_value=100.0))
            records.append(make_record(i, ap.x, ap.y, radius))
        db = ApDatabase(records)
        estimate = MLoc(db).locate(db.bssids)
        assert estimate is not None
        assert not estimate.region_empty
        assert estimate.covers(truth)
        # The estimate itself lies inside the region too.
        assert estimate.region.contains(estimate.position, tol=1e-3)
