"""Shared localization interfaces and the estimate result type."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.region import DiscIntersection
from repro.knowledge.apdb import ApRecord
from repro.net80211.mac import MacAddress


@dataclass
class LocalizationEstimate:
    """The outcome of localizing one mobile device.

    Attributes
    ----------
    position:
        The estimated location in the planar frame.
    algorithm:
        Which localizer produced this ("m-loc", "ap-rad", ...).
    region:
        The intersected region (when the algorithm is disc-based); this
        is what the paper's "intersected area" and "coverage
        probability" metrics are computed from.
    used_ap_count:
        |Γ ∩ knowledge| — how many known APs constrained the estimate.
    region_empty:
        True when the raw disc intersection was empty (possible with
        noisy knowledge) and a fallback produced the position.
    inflation_factor:
        When radii had to be inflated to make the intersection
        non-empty, the factor used (1.0 = no inflation).
    """

    position: Point
    algorithm: str
    region: Optional[DiscIntersection] = None
    used_ap_count: int = 0
    region_empty: bool = False
    inflation_factor: float = 1.0

    @property
    def area_m2(self) -> float:
        """Area of the intersected region (0 when empty / not disc-based)."""
        if self.region is None:
            return 0.0
        return self.region.area

    def covers(self, truth: Point) -> bool:
        """Whether the intersected region contains the true location.

        This is the paper's coverage-probability event (Fig 16); it is
        evaluated on the *raw* region, so an empty region never covers.
        """
        if self.region is None or self.region_empty:
            return False
        return self.region.contains(truth)

    def error_to(self, truth: Point) -> float:
        """Estimation error in meters."""
        return self.position.distance_to(truth)

    def confidence_radius_m(self, fraction: float = 0.5,
                            samples: int = 4000,
                            seed: int = 0) -> Optional[float]:
        """The radius around the estimate containing ``fraction`` of the
        intersected region's area (a CEP-style uncertainty figure).

        Assumes the device is uniformly distributed over the region —
        the honest prior given only communicability evidence.  Returns
        ``None`` for empty / non-disc-based estimates.  Estimated by
        rejection sampling, deterministic for a given ``seed``.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if self.region is None or self.region_empty:
            return None
        min_x, min_y, max_x, max_y = self.region.bounding_box()
        if min_x >= max_x or min_y >= max_y:
            return 0.0
        rng = np.random.default_rng(seed)
        xs = rng.uniform(min_x, max_x, samples)
        ys = rng.uniform(min_y, max_y, samples)
        distances = [
            self.position.distance_to(Point(x, y))
            for x, y in zip(xs, ys)
            if self.region.contains(Point(x, y), tol=0.0)
        ]
        if not distances:
            return 0.0
        return float(np.quantile(distances, fraction))


def fix_record(timestamp: float, estimate: LocalizationEstimate) -> list:
    """One fix as JSON-native values: ``[timestamp, x, y, algorithm, k,
    region_empty, inflation, discs, vertices]``, the region as its discs
    ``[x, y, r]`` and vertices ``[x, y]`` (``None`` without a region)."""
    region = estimate.region
    discs = vertices = None
    if region is not None:
        discs = [[float(disc.center.x), float(disc.center.y),
                  float(disc.radius)] for disc in region.discs]
        vertices = [[float(v.x), float(v.y)] for v in region.vertices]
    position = estimate.position
    return [float(timestamp), float(position.x), float(position.y),
            estimate.algorithm, int(estimate.used_ap_count),
            bool(estimate.region_empty), float(estimate.inflation_factor),
            discs, vertices]


def decode_fix(record: list) -> Tuple[float, LocalizationEstimate]:
    """Invert :func:`fix_record`.  The region adopts the recorded
    vertices, so it is the encoded region exactly, not a recomputation.
    Shard replies and engine checkpoints both carry fixes this way."""
    timestamp, x, y, algorithm, k, empty, inflation, discs, vertices = \
        record
    region = None if discs is None else DiscIntersection(
        [Circle(Point(cx, cy), radius) for cx, cy, radius in discs],
        precomputed_vertices=[Point(vx, vy) for vx, vy in vertices])
    return timestamp, LocalizationEstimate(
        position=Point(x, y), algorithm=algorithm, region=region,
        used_ap_count=k, region_empty=empty, inflation_factor=inflation)


class Localizer(abc.ABC):
    """The localization protocol every algorithm implements uniformly.

    The full surface (``make_localizer`` constructs any of them from a
    spec string; the engine and experiments program against this
    alone):

    * :meth:`fit` / :meth:`partial_fit` — model estimation over an
      observation corpus.  Stateless algorithms (M-Loc, Centroid,
      Nearest-AP, Weighted-Centroid) inherit no-op defaults and are
      always fitted; AP-Rad / AP-Loc run their radius LP here and set
      :attr:`supports_partial_fit` so the streaming engine knows a
      re-fit schedule is meaningful.
    * :attr:`is_fitted` — whether :meth:`locate` is usable.
    * :meth:`locate` / :meth:`locate_batch` — Γ → estimate, single and
      micro-batch (batch results always match per-Γ ``locate``).
    * :attr:`name` / :meth:`cache_key` — stable identity for reports
      and for the engine's Γ-set memoization.
    """

    #: Short algorithm name used in reports.
    name: str = "localizer"

    #: Whether :meth:`partial_fit` folds evidence into a live model
    #: (AP-Rad / AP-Loc).  The streaming engine only schedules re-fits
    #: for localizers that declare support.
    supports_partial_fit: bool = False

    def fit(self, observations) -> None:
        """Estimate model state from an observation corpus.

        The default is a no-op: stateless localizers need no model.
        Fitted algorithms (AP-Rad, AP-Loc) override this and return
        their fit metadata.
        """
        return None

    def partial_fit(self, observations) -> None:
        """Fold new observations into the model incrementally.

        Default: a no-op, mirroring :meth:`fit`.  Localizers that
        support true incremental re-fitting override this and set
        :attr:`supports_partial_fit`.
        """
        return None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`locate` may be called (default: always)."""
        return True

    def cache_key(self) -> str:
        """Stable identity for Γ-set memoization (``repro.engine``).

        Two localizers may share a key only if they answer identically
        for every Γ.  Anything that changes the Γ → estimate mapping
        in place (a re-fit, a knowledge-base swap) must change the key
        — AP-Rad bumps a fit generation — or the cache holding old
        entries must be invalidated explicitly.
        """
        return self.name

    @abc.abstractmethod
    def locate(self, observed: Iterable[MacAddress]
               ) -> Optional[LocalizationEstimate]:
        """Estimate a device's location from its communicable-AP set Γ.

        Returns ``None`` when no known AP appears in Γ — the device is
        outside the adversary's knowledge and cannot be positioned.
        """

    def locate_batch(self, observations: Iterable[Iterable[MacAddress]],
                     executor=None, supervisor=None
                     ) -> List[Optional[LocalizationEstimate]]:
        """Localize a micro-batch of Γ sets in one shot.

        Results are returned in submission order and always match
        per-Γ :meth:`locate`.  Subclasses that can vectorize across a
        batch override :meth:`_locate_batch_local` (M-Loc batches the
        disc-set geometry through the NumPy kernels).

        ``executor`` and ``supervisor`` are accepted only as ``None``:
        batches run in-process, and scaling out is the job of
        :class:`repro.service.ShardedEngine`.
        """
        if executor is not None or supervisor is not None:
            raise TypeError(
                "locate_batch runs in-process; shard devices across "
                "ShardedEngine instead of passing an executor or "
                "supervisor")
        gammas = [list(observed) for observed in observations]
        results = self._locate_batch_local(gammas)
        _count_batch(self.name, results)
        return results

    def _locate_batch_local(self, gammas: List[List[MacAddress]]
                            ) -> List[Optional[LocalizationEstimate]]:
        """In-process batch localization; the override point."""
        return [self.locate(gamma) for gamma in gammas]


def _count_batch(algorithm: str,
                 results: List[Optional[LocalizationEstimate]]) -> None:
    """The shared instrumentation seam for every localizer's batch path."""
    registry = obs.current_registry()
    located = sum(1 for estimate in results if estimate is not None)
    if located:
        registry.counter("repro.localization.located",
                         algorithm=algorithm).inc(located)
    missed = len(results) - located
    if missed:
        registry.counter("repro.localization.unlocatable",
                         algorithm=algorithm).inc(missed)
    inflated = sum(1 for estimate in results
                   if estimate is not None and estimate.inflation_factor > 1.0)
    if inflated:
        registry.counter("repro.localization.inflated",
                         algorithm=algorithm).inc(inflated)


def known_records(database, observed: Iterable[MacAddress]) -> List[ApRecord]:
    """Γ restricted to APs present in the knowledge base, stable order."""
    return database.records_for(observed, skip_unknown=True)
