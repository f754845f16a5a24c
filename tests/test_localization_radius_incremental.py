"""Incremental AP-Rad re-fit tests.

The contract under test: ``ingest`` + ``refit`` (warm-started on the
persistent LP) must land on the *same radii* as a cold ``fit`` over the
concatenated corpus.  A small ``tie_break`` makes the LP's optimum
unique so "same" is well-defined even among alternate optima.
"""

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.localization.aprad import APRad
from repro.localization.radius_lp import RadiusEstimator
from repro.knowledge.apdb import ApDatabase

from tests.helpers import highs_fit, make_record

TIE = 1e-7


def mac(i):
    from repro.net80211.mac import MacAddress
    return MacAddress(i + 1)


def grid_locations(side, spacing=60.0):
    """A jittered grid of AP locations.

    The jitter matters: an exactly symmetric layout can carry pairs of
    alternate optima whose tie-break perturbations cancel exactly
    (the eps deltas form an arithmetic progression), leaving the
    optimum non-unique.  Generic positions rule that out.
    """
    rng = np.random.default_rng(side)
    return {mac(r * side + c): Point(c * spacing + rng.uniform(-7.0, 7.0),
                                     r * spacing + rng.uniform(-7.0, 7.0))
            for r in range(side) for c in range(side)}


def disc_corpus(locations, true_radius, count, seed):
    """Observation sets from uniform probes with exact disc coverage."""
    rng = np.random.default_rng(seed)
    xs = [p.x for p in locations.values()]
    ys = [p.y for p in locations.values()]
    span_x = (min(xs) - 30.0, max(xs) + 30.0)
    span_y = (min(ys) - 30.0, max(ys) + 30.0)
    corpus = []
    for _ in range(count):
        probe = Point(float(rng.uniform(*span_x)),
                      float(rng.uniform(*span_y)))
        gamma = {m for m, loc in locations.items()
                 if loc.distance_to(probe) <= true_radius}
        if gamma:
            corpus.append(gamma)
    return corpus


def make_estimator(locations, **kwargs):
    kwargs.setdefault("r_max", 100.0)
    kwargs.setdefault("tie_break", TIE)
    return RadiusEstimator(locations, **kwargs)


class TestIncrementalEquivalence:
    def test_refit_matches_cold_fit(self):
        locations = grid_locations(4)
        corpus = disc_corpus(locations, 45.0, 120, seed=3)
        initial, delta = corpus[:80], corpus[80:]

        incremental = make_estimator(locations)
        incremental.fit(initial)
        incremental.ingest(delta)
        warm = incremental.refit()

        cold = make_estimator(locations).fit(corpus)
        for m in locations:
            assert warm.radii[m] == pytest.approx(cold.radii[m], abs=1e-6)
        assert warm.warm_started
        assert not cold.warm_started

    def test_refit_matches_scipy(self):
        locations = grid_locations(3)
        corpus = disc_corpus(locations, 50.0, 90, seed=5)
        incremental = make_estimator(locations)
        incremental.fit(corpus[:60])
        incremental.ingest(corpus[60:])
        warm = incremental.refit()

        reference, _ = highs_fit(make_estimator(locations), corpus)
        for m in locations:
            assert warm.radii[m] == pytest.approx(reference[m], abs=1e-6)

    def test_many_small_deltas(self):
        # Radii must stay consistent through a long refit chain, not
        # just one step — drift in the persistent basis would show up.
        locations = grid_locations(3)
        corpus = disc_corpus(locations, 40.0, 100, seed=9)
        incremental = make_estimator(locations)
        incremental.fit(corpus[:40])
        step = 10
        for start in range(40, len(corpus), step):
            incremental.ingest(corpus[start:start + step])
            warm = incremental.refit()
        cold = make_estimator(locations).fit(corpus)
        for m in locations:
            assert warm.radii[m] == pytest.approx(cold.radii[m], abs=1e-6)

    def test_separated_to_co_observed_transition(self):
        # The delicate delta: a pair constrained apart by early
        # evidence later shows up together.  The "<=" row must stop
        # binding (it is inerted, not deleted) and the new ">=" row
        # must appear.
        a, b = mac(0), mac(1)
        locations = {a: Point(0.0, 0.0), b: Point(100.0, 0.0)}
        incremental = make_estimator(locations)
        before = incremental.fit([{a}, {b}])  # separated: r_a+r_b <= 100
        assert before.separated_pairs == 1
        assert before.radii[a] + before.radii[b] <= 100.0 + 1e-6

        incremental.ingest([{a, b}])  # now co-observed
        after = incremental.refit()
        assert after.co_observed_pairs == 1
        assert after.separated_pairs == 0
        assert after.radii[a] + after.radii[b] >= 100.0 - 1e-6
        assert incremental.inert_rows == 1

        cold = make_estimator(locations).fit([{a}, {b}, {a, b}])
        for m in locations:
            assert after.radii[m] == pytest.approx(cold.radii[m],
                                                   abs=1e-6)

    def test_refit_without_new_evidence_is_stable(self):
        locations = grid_locations(3)
        corpus = disc_corpus(locations, 45.0, 60, seed=13)
        estimator = make_estimator(locations)
        first = estimator.fit(corpus)
        second = estimator.refit()
        for m in locations:
            assert second.radii[m] == pytest.approx(first.radii[m],
                                                    abs=1e-9)


class TestEvidenceAbsorption:
    def test_repeated_gammas_count_once_per_occurrence(self):
        # A refit window holds the same few Γ many times over, plus Γ
        # with unknown APs and Γ with none known.
        locations = grid_locations(4)
        distinct = disc_corpus(locations, 45.0, 12, seed=8)
        distinct.append({mac(999)})
        distinct.append(set(distinct[0]) | {mac(998)})
        rng = np.random.default_rng(1)
        corpus = [list(distinct[i])
                  for i in rng.integers(0, len(distinct), 400)]

        estimator = make_estimator(locations)
        absorbed = estimator.ingest(corpus)

        index_of = estimator._index_of
        counts, co_pairs, known = {}, set(), 0
        for observed in corpus:
            indices = sorted({index_of[b] for b in observed
                              if b in index_of})
            if not indices:
                continue
            known += 1
            for i in indices:
                counts[i] = counts.get(i, 0) + 1
            co_pairs.update((a, b) for n, a in enumerate(indices)
                            for b in indices[n + 1:])
        assert absorbed == known
        assert estimator._counts == counts
        assert list(estimator._counts) == list(counts)
        assert estimator._co_pairs == co_pairs


class TestMetadata:
    def test_estimate_reports_solver_work(self):
        locations = grid_locations(3)
        corpus = disc_corpus(locations, 45.0, 60, seed=21)
        estimator = make_estimator(locations)
        estimate = estimator.fit(corpus)
        assert estimate.solver_iterations > 0
        assert estimate.solve_seconds > 0.0
        assert estimate.lp_rows == estimator.lp_rows
        assert estimate.lp_rows > 0

    def test_ingest_returns_observation_count(self):
        locations = grid_locations(2)
        estimator = make_estimator(locations)
        estimator.fit(disc_corpus(locations, 45.0, 20, seed=2))
        added = estimator.ingest([{mac(0)}, {mac(1)}, set()])
        assert added == 2  # empty observation sets carry no evidence

    def test_tie_break_validation(self):
        with pytest.raises(ValueError):
            make_estimator({mac(0): Point(0, 0)}, tie_break=-1.0)


class TestAPRadPartialFit:
    def test_partial_fit_before_fit_delegates(self):
        locations = grid_locations(3)
        db = ApDatabase(make_record(i, p.x, p.y)
                        for i, (m, p) in enumerate(sorted(locations.items())))
        aprad = APRad(db, r_max=100.0, tie_break=TIE)
        assert not aprad.is_fitted
        corpus = disc_corpus({r.bssid: r.location for r in db},
                             45.0, 40, seed=31)
        estimate = aprad.partial_fit(corpus)
        assert aprad.is_fitted
        assert aprad.last_fit is estimate

    def test_partial_fit_matches_cold_fit(self):
        jitter = np.random.default_rng(8)
        db = ApDatabase(
            make_record(i, x * 60.0 + jitter.uniform(-7.0, 7.0),
                        y * 60.0 + jitter.uniform(-7.0, 7.0))
            for i, (x, y) in enumerate(
                (r, c) for r in range(3) for c in range(3)))
        locations = {r.bssid: r.location for r in db}
        corpus = disc_corpus(locations, 45.0, 90, seed=37)

        streaming = APRad(db, r_max=100.0, tie_break=TIE)
        streaming.fit(corpus[:60])
        generation = streaming.cache_key()
        warm = streaming.partial_fit(corpus[60:])
        assert streaming.cache_key() != generation  # cache invalidated

        cold = APRad(db, r_max=100.0, tie_break=TIE)
        cold_fit = cold.fit(corpus)
        for bssid in locations:
            assert warm.radii[bssid] == pytest.approx(
                cold_fit.radii[bssid], abs=1e-6)
        # The fitted database the localizer uses carries the new radii.
        for record in streaming.fitted_database:
            assert record.max_range_m == pytest.approx(
                warm.radii[record.bssid], abs=1e-9)
