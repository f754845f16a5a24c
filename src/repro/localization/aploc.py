"""AP-Loc: localization with no prior AP knowledge.

Paper Section III-C3 / III-D: when no AP information is available, the
adversary first collects training tuples by wardriving, then

    1. locates each AP "by using, again, the disc-intersection
       approach": intersect discs centered at the *training locations*
       that observed the AP, using "a theoretical upper bound as the
       radius", and take the centroid of the intersected area;
    2. estimates radii with the AP-Rad linear program;
    3. calls M-Loc.

The training-disc radius upper bound plays the role of Theorem 3's
``R >= r``: overestimation keeps the true AP inside the intersection at
the cost of a larger region, which shrinks as tuples accumulate — the
paper's Fig 17 (error vs. number of training tuples).

Placement cost: a single pass builds an inverted index (BSSID → the
training locations that observed it), replacing the previous per-AP
scan over the whole corpus, and each AP's disc intersection prunes its
candidate pairs through a :class:`~repro.geometry.grid.SpatialGrid` —
pairs of training discs farther apart than the radius sum cannot
intersect, so skipping them yields exactly the same vertex set Δ.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.geometry import kernels
from repro.geometry.circle import Circle
from repro.geometry.grid import SpatialGrid
from repro.geometry.point import Point
from repro.geometry.region import DiscIntersection
from repro.knowledge.apdb import ApDatabase, ApRecord
from repro.knowledge.wardrive import TrainingTuple
from repro.localization.aprad import APRad
from repro.localization.base import LocalizationEstimate, Localizer
from repro.localization.radius_lp import RadiusEstimate
from repro.net80211.mac import MacAddress
from repro.net80211.ssid import Ssid


class APLoc(Localizer):
    """The paper's AP-Loc algorithm.

    Parameters
    ----------
    training:
        The wardriving tuples (location, observed AP set).
    training_radius_m:
        The "theoretical upper bound" used as the disc radius around
        each training location when placing APs.
    r_max / r_min:
        Passed through to the AP-Rad radius LP.
    refine_iterations:
        Extension beyond the paper: after the radius LP, re-place each
        AP using its *estimated* radius as the training-disc radius
        (instead of the loose theoretical upper bound) and re-run the
        LP.  A tighter radius shrinks the placement intersection, so
        placement and radii improve together; an AP whose refined
        intersection comes up empty keeps its previous placement.

    Call :meth:`fit` with the attack-phase observation corpus before
    :meth:`locate`.
    """

    name = "ap-loc"
    supports_partial_fit = True

    def __init__(self, training: Sequence[TrainingTuple],
                 training_radius_m: float, r_max: float,
                 r_min: float = 1.0,
                 mloc_mode: str = "vertex",
                 max_separated_neighbors: Optional[int] = None,
                 min_evidence: int = 1,
                 overestimate_factor: float = 1.0,
                 refine_iterations: int = 0,
                 tie_break: float = 0.0):
        if training_radius_m <= 0.0:
            raise ValueError(
                f"training radius must be > 0, got {training_radius_m}")
        self.training = list(training)
        self.training_radius_m = training_radius_m
        self._aprad: Optional[APRad] = None  # built lazily in fit()
        self._r_max = r_max
        self._r_min = r_min
        self._mloc_mode = mloc_mode
        self._max_separated_neighbors = max_separated_neighbors
        self._min_evidence = min_evidence
        self._overestimate_factor = overestimate_factor
        self._tie_break = tie_break
        if refine_iterations < 0:
            raise ValueError(
                f"refine_iterations must be >= 0, got {refine_iterations}")
        self.refine_iterations = refine_iterations
        self._estimated_locations: Optional[Dict[MacAddress, Point]] = None
        self._training_coords = np.array(
            [entry.location.as_tuple() for entry in self.training],
            dtype=np.float64).reshape(len(self.training), 2)
        self._observer_index: Optional[Dict[MacAddress, np.ndarray]] = None
        self._fit_generation = 0

    # ------------------------------------------------------------------
    # Step 1: AP placement from training tuples
    # ------------------------------------------------------------------

    def _observers_of(self) -> Dict[MacAddress, np.ndarray]:
        """BSSID → indices of the training tuples that observed it.

        Built in one pass over the corpus; the previous implementation
        re-scanned all T tuples for each of the A APs (O(A·T)).
        """
        if self._observer_index is None:
            collected: Dict[MacAddress, List[int]] = {}
            for index, entry in enumerate(self.training):
                for bssid in entry.observed:
                    collected.setdefault(bssid, []).append(index)
            self._observer_index = {
                bssid: np.array(indices, dtype=np.int64)
                for bssid, indices in collected.items()
            }
        return self._observer_index

    def _place_ap(self, observer_rows: np.ndarray,
                  radius: float) -> Optional[Point]:
        """Centroid of the observing discs' intersection, or None.

        Equal-radius discs at the observing training locations.  The
        candidate vertex pairs are pruned through a spatial grid:
        discs farther apart than ``2 * radius`` (the radius sum)
        intersect nowhere, so only in-range pairs are handed to the
        geometry kernel — the resulting Δ is identical to the all-pairs
        computation.  A bounding-box check catches provably-empty
        regions (two observers farther apart than any shared point
        allows) before any pair work.
        """
        points = self._training_coords[observer_rows]
        count = len(points)
        discs = [Circle(Point(x, y), radius) for x, y in points]
        if count == 1:
            return DiscIntersection(discs).centroid()
        # Tolerances exactly as DiscIntersection derives them, so the
        # precomputed Δ matches what the region would compute itself.
        tol = 1e-9 * max(1.0, radius)
        spans = points.max(axis=0) - points.min(axis=0)
        if float(spans.max()) > 2.0 * radius + 10.0 * tol:
            # The two extreme observers are farther apart than 2r even
            # after every tolerance: their discs are disjoint, the
            # intersection is empty, and the caller's fallback applies.
            return None
        cutoff = 2.0 * radius + tol
        grid = SpatialGrid(points, cell_size=cutoff)
        pair_i, pair_j, _ = grid.pairs_within(cutoff, strict=False)
        radii = np.full(count, radius, dtype=np.float64)
        vertices = kernels.intersection_vertices_pruned(
            points, radii, pair_i, pair_j,
            contain_slack=tol, dedupe_tol=tol * 10.0)
        region = DiscIntersection(
            discs, precomputed_vertices=kernels.array_as_points(vertices))
        return region.centroid()

    def estimate_ap_locations(self) -> Dict[MacAddress, Point]:
        """Place every AP seen in training by disc intersection.

        For each AP: intersect discs of radius ``training_radius_m``
        centered at the training locations that observed it, and take
        the centroid of the intersected area.  If the intersection is
        empty (an over-tight radius bound), fall back to the mean of the
        observing training locations.
        """
        if self._estimated_locations is not None:
            return dict(self._estimated_locations)
        observers = self._observers_of()
        locations: Dict[MacAddress, Point] = {}
        for bssid in sorted(observers):
            rows = observers[bssid]
            centroid = self._place_ap(rows, self.training_radius_m)
            if centroid is None:
                mean = self._training_coords[rows].mean(axis=0)
                centroid = Point(float(mean[0]), float(mean[1]))
            locations[bssid] = centroid
        self._estimated_locations = locations
        return dict(locations)

    # ------------------------------------------------------------------
    # Steps 2–3: AP-Rad then M-Loc
    # ------------------------------------------------------------------

    def fit(self, observations: Sequence[Iterable[MacAddress]]):
        """Build the estimated AP database and run the radius LP.

        With ``refine_iterations > 0``, placement and radius estimation
        alternate: LP radii → tighter placement discs → better
        locations → re-run the LP.
        """
        locations = self.estimate_ap_locations()
        estimate = None
        for iteration in range(self.refine_iterations + 1):
            database = ApDatabase(
                ApRecord(bssid=bssid, ssid=Ssid(""), location=location)
                for bssid, location in locations.items()
            )
            self._aprad = APRad(
                database, r_max=self._r_max, r_min=self._r_min,
                mloc_mode=self._mloc_mode,
                max_separated_neighbors=self._max_separated_neighbors,
                min_evidence=self._min_evidence,
                overestimate_factor=self._overestimate_factor,
                tie_break=self._tie_break)
            estimate = self._aprad.fit(observations)
            if iteration < self.refine_iterations:
                locations = self._refine_locations(locations,
                                                   estimate.radii)
        self._estimated_locations = locations
        self._fit_generation += 1
        return estimate

    def partial_fit(self, observations: Sequence[Iterable[MacAddress]]
                    ) -> RadiusEstimate:
        """Fold new attack-phase observations into the radius LP.

        AP placements stay as fitted (they derive from the training
        corpus, which does not grow here); the inner AP-Rad re-fit is
        incremental, warm-starting from its previous basis.  Raises if
        :meth:`fit` has not run.
        """
        if self._aprad is None:
            raise RuntimeError(
                "APLoc.partial_fit called before fit(); run fit() with "
                "the initial observation corpus first")
        estimate = self._aprad.partial_fit(observations)
        self._fit_generation += 1
        return estimate

    @property
    def is_fitted(self) -> bool:
        return self._aprad is not None and self._aprad.is_fitted

    def cache_key(self) -> str:
        """Re-fitting moves APs and radii, so it bumps the cache key."""
        return f"{self.name}#fit{self._fit_generation}"

    def _refine_locations(self, previous: Dict[MacAddress, Point],
                          radii: Dict[MacAddress, float]
                          ) -> Dict[MacAddress, Point]:
        """Re-place APs with their estimated radii as disc radii."""
        observers = self._observers_of()
        refined: Dict[MacAddress, Point] = {}
        for bssid, location in previous.items():
            radius = radii.get(bssid)
            if radius is None or radius >= self.training_radius_m:
                refined[bssid] = location
                continue
            centroid = self._place_ap(observers[bssid], radius)
            refined[bssid] = centroid if centroid is not None else location
        return refined

    def locate(self, observed: Iterable[MacAddress]
               ) -> Optional[LocalizationEstimate]:
        return self._locate_batch_local([list(observed)])[0]

    def _locate_batch_local(self, gammas: List[List[MacAddress]]
                            ) -> List[Optional[LocalizationEstimate]]:
        """The whole batch through the inner AP-Rad's M-Loc."""
        if self._aprad is None:
            raise RuntimeError(
                "APLoc.locate called before fit(); run fit() with the "
                "attack-phase observations first")
        estimates = self._aprad._locate_batch_local(gammas)
        for estimate in estimates:
            if estimate is not None:
                estimate.algorithm = self.name
        return estimates

    def fit_and_locate_all(
        self, observations: Sequence[Iterable[MacAddress]]
    ) -> List[Optional[LocalizationEstimate]]:
        """Full AP-Loc flow over an observation corpus."""
        self.fit(observations)
        return [self.locate(observed) for observed in observations]
