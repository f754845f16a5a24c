"""AP-Rad: localization when only AP locations are known.

Paper Section III-D: "Algorithm AP-Rad estimates the APs' maximum
transmission distances based on their locations, and then calls M-Loc to
locate a mobile device."  The radius estimation is the LP of
:mod:`repro.localization.radius_lp`; the observation corpus (one Γ per
monitored mobile) doubles as both the LP evidence and the localization
targets.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence

from repro.knowledge.apdb import ApDatabase
from repro.localization.base import LocalizationEstimate, Localizer
from repro.localization.mloc import MLoc
from repro.localization.radius_lp import RadiusEstimate, RadiusEstimator
from repro.net80211.mac import MacAddress


class APRad(Localizer):
    """The paper's AP-Rad algorithm.

    Typical use::

        aprad = APRad(location_only_db, r_max=150.0)
        aprad.fit(all_observed_sets)        # the LP over co-observations
        estimate = aprad.locate(gamma_k)    # M-Loc with estimated radii

    ``locate`` raises if called before ``fit`` — AP-Rad has no radii
    until the LP has run.

    ``solver`` is not an option: the radius LP has one solver, the
    in-tree revised simplex.  The keyword stays only because the
    pipeline benchmark (``perfbench/workloads.py``) still passes
    ``solver="revised"``; it accepts that value alone, raises
    ``ValueError`` on any other when the localizer is built, and is
    neither stored nor forwarded.
    """

    name = "ap-rad"
    supports_partial_fit = True

    def __init__(self, database: ApDatabase, r_max: float,
                 r_min: float = 1.0, solver: str = "revised",
                 mloc_mode: str = "vertex",
                 max_separated_neighbors: Optional[int] = None,
                 min_evidence: int = 1,
                 overestimate_factor: float = 1.0,
                 tie_break: float = 0.0):
        if solver != "revised":
            raise ValueError(
                f"unknown solver {solver!r}; the radius LP has one "
                "solver, 'revised'")
        self.database = database
        self.r_max = r_max
        self.r_min = r_min
        self.mloc_mode = mloc_mode
        self.max_separated_neighbors = max_separated_neighbors
        self.min_evidence = min_evidence
        self.overestimate_factor = overestimate_factor
        self.tie_break = tie_break
        self._estimator: Optional[RadiusEstimator] = None
        self._fitted_db: Optional[ApDatabase] = None
        self._mloc: Optional[MLoc] = None
        self._last_fit: Optional[RadiusEstimate] = None
        self._fit_generation = 0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def _make_estimator(self) -> RadiusEstimator:
        locations = {record.bssid: record.location
                     for record in self.database}
        return RadiusEstimator(
            locations, r_max=self.r_max, r_min=self.r_min,
            max_separated_neighbors=self.max_separated_neighbors,
            min_evidence=self.min_evidence,
            overestimate_factor=self.overestimate_factor,
            tie_break=self.tie_break)

    def _apply_fit(self, estimate: RadiusEstimate) -> RadiusEstimate:
        fitted = ApDatabase(
            replace(record, max_range_m=estimate.radii[record.bssid])
            for record in self.database
        )
        self._fitted_db = fitted
        self._mloc = MLoc(fitted, mode=self.mloc_mode)
        self._last_fit = estimate
        self._fit_generation += 1
        return estimate

    def fit(self, observations: Sequence[Iterable[MacAddress]]
            ) -> RadiusEstimate:
        """Run the radius LP over the observation corpus (cold)."""
        self._estimator = self._make_estimator()
        return self._apply_fit(self._estimator.fit(observations))

    def partial_fit(self, observations: Sequence[Iterable[MacAddress]]
                    ) -> RadiusEstimate:
        """Fold new observations in and re-solve incrementally.

        The estimator (and its LP basis) persists across calls, so each
        re-fit costs roughly the evidence delta instead of the
        accumulated corpus.  The first call on an unfitted instance is
        equivalent to :meth:`fit`.
        """
        if self._estimator is None:
            return self.fit(observations)
        self._estimator.ingest(observations)
        return self._apply_fit(self._estimator.refit())

    @property
    def is_fitted(self) -> bool:
        """Whether the radius LP has run (``locate`` is usable)."""
        return self._mloc is not None

    @property
    def last_fit(self) -> Optional[RadiusEstimate]:
        """Metadata from the most recent (re-)fit, if any."""
        return self._last_fit

    def cache_key(self) -> str:
        """Re-fitting changes every radius, so it bumps the cache key."""
        return f"{self.name}#fit{self._fit_generation}"

    @property
    def fitted_database(self) -> ApDatabase:
        """The knowledge base with LP-estimated radii filled in."""
        self._require_fit()
        return self._fitted_db

    @property
    def estimated_radii(self) -> Dict[MacAddress, float]:
        self._require_fit()
        return dict(self._last_fit.radii)

    # ------------------------------------------------------------------
    # Localization
    # ------------------------------------------------------------------

    def locate(self, observed: Iterable[MacAddress]
               ) -> Optional[LocalizationEstimate]:
        return self._locate_batch_local([list(observed)])[0]

    def _locate_batch_local(self, gammas: List[List[MacAddress]]
                            ) -> List[Optional[LocalizationEstimate]]:
        """The whole batch through the fitted M-Loc's batched kernels."""
        self._require_fit()
        estimates = self._mloc._locate_batch_local(gammas)
        for estimate in estimates:
            if estimate is not None:
                estimate.algorithm = self.name
        return estimates

    def fit_and_locate_all(
        self, observations: Sequence[Iterable[MacAddress]]
    ) -> List[Optional[LocalizationEstimate]]:
        """The paper's full AP-Rad flow: one fit, then locate every Γ."""
        self.fit(observations)
        return [self.locate(observed) for observed in observations]

    def _require_fit(self) -> None:
        if self._mloc is None:
            raise RuntimeError(
                "APRad.locate called before fit(); run the radius LP "
                "over the observation corpus first")
