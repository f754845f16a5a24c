"""Every localizer, built via ``make_localizer``, honors one protocol."""

import pytest

from repro.knowledge.wardrive import Wardriver
from repro.localization import (
    Localizer,
    LocalizationEstimate,
    localizer_names,
    make_localizer,
    make_localizers,
)
from repro.localization.factory import parse_spec
from repro.sim.mobility import grid_route

ALL_SPECS = (
    "m-loc",
    "ap-rad:r_max=150",
    "ap-loc:training_radius_m=90,r_max=150",
    "centroid",
    "nearest-ap",
    "weighted-centroid",
)


@pytest.fixture
def training(square_db):
    route = grid_route(-60.0, -60.0, 160.0, 160.0, rows=6,
                       points_per_row=6)
    return Wardriver(square_db.observable_from).collect(route)


@pytest.fixture
def corpus(square_db):
    """Observation corpus: Γ sets sampled across the square."""
    route = grid_route(10.0, 10.0, 90.0, 90.0, rows=5, points_per_row=5)
    return [square_db.observable_from(point) for point in route]


def build(spec, square_db, training):
    return make_localizer(spec, database=square_db, training=training)


@pytest.mark.parametrize("spec", ALL_SPECS)
class TestProtocolConformance:
    def test_protocol_surface(self, spec, square_db, training):
        localizer = build(spec, square_db, training)
        assert isinstance(localizer, Localizer)
        assert isinstance(localizer.name, str) and localizer.name
        assert isinstance(localizer.supports_partial_fit, bool)
        assert isinstance(localizer.is_fitted, bool)
        assert isinstance(localizer.cache_key(), str)
        for method in ("fit", "partial_fit", "locate", "locate_batch"):
            assert callable(getattr(localizer, method))

    def test_fit_then_locate(self, spec, square_db, training, corpus):
        localizer = build(spec, square_db, training)
        if not localizer.is_fitted:
            localizer.fit(corpus)
        assert localizer.is_fitted
        gamma = set(square_db.bssids)
        estimate = localizer.locate(gamma)
        assert isinstance(estimate, LocalizationEstimate)
        assert estimate.used_ap_count > 0
        # All four discs contain the square's center; every algorithm
        # should land the estimate inside (or near) the square.
        assert -60.0 <= estimate.position.x <= 160.0
        assert -60.0 <= estimate.position.y <= 160.0

    def test_locate_batch_matches_locate(self, spec, square_db, training,
                                         corpus):
        localizer = build(spec, square_db, training)
        if not localizer.is_fitted:
            localizer.fit(corpus)
        gammas = corpus + [[]]
        single = [localizer.locate(gamma) for gamma in gammas]
        batch = localizer.locate_batch(gammas)
        assert len(batch) == len(single)
        for one, many in zip(single, batch):
            assert (one is None) == (many is None)
            if one is not None:
                assert many.algorithm == one.algorithm
                assert many.position.x == pytest.approx(one.position.x)
                assert many.position.y == pytest.approx(one.position.y)

    def test_unknown_gamma_is_unlocatable(self, spec, square_db, training,
                                          corpus):
        localizer = build(spec, square_db, training)
        if not localizer.is_fitted:
            localizer.fit(corpus)
        assert localizer.locate([]) is None

    def test_cache_key_is_stable(self, spec, square_db, training):
        localizer = build(spec, square_db, training)
        assert localizer.cache_key() == localizer.cache_key()


class TestPartialFitContract:
    def test_only_fitted_algorithms_declare_support(self, square_db,
                                                    training):
        support = {
            spec: build(spec, square_db, training).supports_partial_fit
            for spec in ALL_SPECS
        }
        assert support == {
            "m-loc": False,
            "ap-rad:r_max=150": True,
            "ap-loc:training_radius_m=90,r_max=150": True,
            "centroid": False,
            "nearest-ap": False,
            "weighted-centroid": False,
        }

    def test_refit_bumps_aprad_cache_key(self, square_db, corpus):
        localizer = make_localizer("ap-rad:r_max=150", database=square_db)
        localizer.fit(corpus)
        first = localizer.cache_key()
        localizer.partial_fit(corpus[:3])
        assert localizer.cache_key() != first

    def test_stateless_partial_fit_is_a_noop(self, square_db, corpus):
        localizer = make_localizer("m-loc", database=square_db)
        gamma = set(square_db.bssids)
        before = localizer.locate(gamma)
        localizer.partial_fit(corpus)
        after = localizer.locate(gamma)
        assert after.position.x == pytest.approx(before.position.x)
        assert after.position.y == pytest.approx(before.position.y)


class TestFactory:
    def test_names_cover_every_spec(self):
        assert set(localizer_names()) == {
            spec.partition(":")[0] for spec in ALL_SPECS}

    def test_spec_overrides_win_over_defaults(self, square_db):
        localizer = make_localizer("ap-rad:r_max=150", database=square_db,
                                   r_max=80.0, min_evidence=2)
        assert localizer.r_max == 150.0
        assert localizer.min_evidence == 2

    def test_value_coercion(self):
        _, overrides = parse_spec(
            "m-loc:mode=vertex,fallback_range_m=120,"
            "inflate_to_feasible=false")
        assert overrides == {"mode": "vertex", "fallback_range_m": 120,
                             "inflate_to_feasible": False}

    def test_unknown_name_raises(self, square_db):
        with pytest.raises(ValueError, match="unknown localizer"):
            make_localizer("triangulate", database=square_db)

    def test_malformed_option_raises(self, square_db):
        with pytest.raises(ValueError, match="malformed option"):
            make_localizer("m-loc:mode", database=square_db)

    def test_missing_database_raises(self):
        with pytest.raises(ValueError, match="requires a database"):
            make_localizer("m-loc")

    def test_missing_training_raises(self, square_db):
        with pytest.raises(ValueError, match="training"):
            make_localizer("ap-loc:training_radius_m=90,r_max=150",
                           database=square_db)

    def test_bad_keyword_raises_value_error(self, square_db):
        with pytest.raises(ValueError, match="bad options"):
            make_localizer("m-loc:warp_factor=9", database=square_db)

    def test_unknown_aprad_solver_raises_when_built(self, square_db):
        # The radius LP has one solver: any other name fails here, not
        # at the first fit (which an engine first runs mid-stream).
        with pytest.raises(ValueError,
                           match="bad options for localizer 'ap-rad'"):
            make_localizer("ap-rad:r_max=100,solver=highs",
                           database=square_db)
        assert make_localizer("ap-rad:r_max=100,solver=revised",
                              database=square_db).name == "ap-rad"

    def test_make_localizers_vectorizes(self, square_db, training):
        localizers = make_localizers(
            ["m-loc", "centroid"], database=square_db, training=training)
        assert [loc.name for loc in localizers] == ["m-loc", "centroid"]
