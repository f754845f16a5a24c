"""M-Loc: localization from AP locations and maximum transmission distances.

The paper's pseudocode (Section III-D):

    1. For each pair of APs in Γ, compute the intersection points of
       their coverage circles.
    2. Keep the points that lie inside *every* AP's disc — the set Δ.
    3. Return AVG(Δ), the centroid of the surviving vertices.

That is ``mode="vertex"`` here.  The pseudocode is undefined when Δ is
empty — which happens for k = 1 (no pairs), nested discs, and noisy
knowledge that makes the intersection empty.  ``mode="region"`` computes
the exact area centroid of the intersection region instead (identical in
spirit, defined whenever the region is non-empty).  Both modes share the
documented fallback chain for empty intersections: optionally inflate
all radii by the smallest factor that makes the region non-empty
(the weighted minimax scale, computed exactly), else fall back to the
mean of the AP locations.  The inflated set's probe and Δ test the
pairwise candidates against the ≤ 3 discs tight at the minimax point
first, and only the survivors against every disc: the same bits as
the full candidates × discs test, at a fraction of its cost.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.geometry import kernels
from repro.geometry.circle import Circle
from repro.geometry.point import Point, mean_point
from repro.geometry.region import DiscIntersection
from repro.knowledge.apdb import ApDatabase
from repro.localization.base import (
    LocalizationEstimate,
    Localizer,
    known_records,
)
from repro.net80211.mac import MacAddress

#: Largest radius inflation tried before giving up on a non-empty region.
_MAX_INFLATION = 16.0

#: Added to the exact minimax scale so the inflated region has interior
#: (well inside the 1e-3 tolerance of the old bisection).
_INFLATION_MARGIN = 5e-4


class MLoc(Localizer):
    """The paper's M-Loc algorithm.

    Parameters
    ----------
    database:
        AP knowledge with locations *and* ``max_range_m`` set (records
        without a range use ``fallback_range_m``; if neither is
        available the record is skipped).
    mode:
        ``"vertex"`` — the paper's AVG(Δ) over intersection vertices;
        ``"region"`` — exact centroid of the intersection region.
    inflate_to_feasible:
        When the raw intersection is empty (noisy knowledge), scale all
        radii by the smallest factor in ``[1, 16]`` that yields a
        non-empty region (plus a 5e-4 margin) and estimate from that.
        The reported region and ``covers``/area metrics still refer to
        the *raw* discs.
    """

    name = "m-loc"

    def __init__(self, database: ApDatabase, mode: str = "vertex",
                 fallback_range_m: Optional[float] = None,
                 inflate_to_feasible: bool = True):
        if mode not in ("vertex", "region"):
            raise ValueError(f"mode must be 'vertex' or 'region', got {mode!r}")
        self.database = database
        self.mode = mode
        self.fallback_range_m = fallback_range_m
        self.inflate_to_feasible = inflate_to_feasible

    def locate(self, observed: Iterable[MacAddress]
               ) -> Optional[LocalizationEstimate]:
        # A batch of one, so locate and locate_batch are the same bits.
        return self._locate_batch_local([list(observed)])[0]

    def _discs_for(self, observed: Iterable[MacAddress]) -> List[Circle]:
        discs: List[Circle] = []
        for record in known_records(self.database, observed):
            radius = record.max_range_m
            if radius is None:
                radius = self.fallback_range_m
            if radius is None:
                continue
            discs.append(Circle(record.location, radius))
        return discs

    def locate_discs(self, discs: List[Circle],
                     region: Optional[DiscIntersection] = None
                     ) -> LocalizationEstimate:
        """Run the disc-intersection estimate on explicit discs.

        Exposed separately so AP-Loc can reuse the machinery with
        training-location discs.  ``region`` lets the batch path inject
        an intersection whose vertices the batched kernel already
        computed.
        """
        if region is None:
            region = DiscIntersection(discs)
        position = self._estimate_from_region(region)
        inflation = 1.0
        region_empty = region.is_empty
        if position is None:
            position, inflation = self._fallback(discs)
        return LocalizationEstimate(
            position=position,
            algorithm=self.name,
            region=region,
            used_ap_count=len(discs),
            region_empty=region_empty,
            inflation_factor=inflation,
        )

    def _locate_batch_local(self, gammas: List[List[MacAddress]]
                            ) -> List[Optional[LocalizationEstimate]]:
        """Batch localization through the geometry kernels.

        Disc sets of equal size are stacked into one
        :func:`repro.geometry.kernels.batch_intersection_vertices` call
        — a micro-batch of dirty devices costs one dispatch sequence
        per distinct k instead of one per device.  Sets that
        :func:`repro.geometry.kernels.separated_pair_mask` proves empty
        skip the vertex kernel: their region is built with no vertices
        and goes straight to the inflation fallback.  :meth:`locate` is
        this on a batch of one.
        """
        disc_sets = [self._discs_for(gamma) for gamma in gammas]
        estimates: List[Optional[LocalizationEstimate]] = [None] * len(gammas)
        by_size: Dict[int, List[int]] = {}
        for index, discs in enumerate(disc_sets):
            if len(discs) < 2:
                # Unlocatable (k=0) or a single full disc: no pairwise
                # geometry to batch.
                if discs:
                    estimates[index] = self.locate_discs(discs)
                continue
            by_size.setdefault(len(discs), []).append(index)
        for size, indices in by_size.items():
            centers = np.empty((len(indices), size, 2), dtype=np.float64)
            radii = np.empty((len(indices), size), dtype=np.float64)
            for row, index in enumerate(indices):
                centers[row], radii[row] = kernels.discs_as_arrays(
                    disc_sets[index])
            # Sets with a pair too far apart to meet have no Δ; keep
            # them out of the batched (B, k, 2P) containment tensor.
            separated = kernels.separated_pair_mask(centers, radii)
            meeting = []
            for row, index in enumerate(indices):
                if not separated[row]:
                    meeting.append(index)
                    continue
                discs = disc_sets[index]
                region = DiscIntersection(discs, precomputed_vertices=[])
                estimates[index] = self.locate_discs(discs, region=region)
            if not meeting:
                continue
            vertex_sets = kernels.batch_intersection_vertices(
                centers[~separated], radii[~separated])
            for index, coords in zip(meeting, vertex_sets):
                discs = disc_sets[index]
                region = DiscIntersection(
                    discs,
                    precomputed_vertices=kernels.array_as_points(coords))
                estimates[index] = self.locate_discs(discs, region=region)
        return estimates

    def _estimate_from_region(self,
                              region: DiscIntersection) -> Optional[Point]:
        if region.is_empty:
            return None
        if self.mode == "vertex":
            vertex_estimate = region.vertex_centroid()
            if vertex_estimate is not None:
                return vertex_estimate
            # Δ is empty but the region is not (k = 1 or nested discs):
            # the paper's AVG(Δ) is undefined, so use the region
            # centroid, which equals the disc center in those cases.
        return region.centroid()

    def _fallback(self, discs: List[Circle]) -> tuple:
        """Empty raw intersection: inflate radii or take the AP mean.

        The inflated region's Δ comes from the probe's
        :class:`~repro.geometry.kernels.PairGeometry` and its screen
        (:func:`repro.geometry.kernels.vertices_at_scale`): the bits
        ``DiscIntersection(inflated)`` would compute, without a second
        full candidates × discs tensor.
        """
        centers = [disc.center for disc in discs]
        if not self.inflate_to_feasible:
            return mean_point(centers), 1.0
        inflation = self._smallest_feasible_inflation(discs)
        if inflation is None:
            return mean_point(centers), _MAX_INFLATION
        factor, geom = inflation
        inflated = [Circle(d.center, d.radius * factor) for d in discs]
        region = DiscIntersection(
            inflated, precomputed_vertices=kernels.array_as_points(
                kernels.vertices_at_scale(geom, factor)))
        position = self._estimate_from_region(region)
        if position is None:
            position = mean_point(centers)
        return position, factor

    @staticmethod
    def _smallest_feasible_inflation(
            discs: List[Circle]
    ) -> Optional[Tuple[float, kernels.PairGeometry]]:
        """The smallest radius scale giving a non-empty region, + margin.

        The exact answer is the weighted minimax
        ``s* = min_x max_i |x−c_i|/r_i``
        (:func:`repro.geometry.kernels.minimax_scale`); the factor is
        ``max(1, s*)`` plus :data:`_INFLATION_MARGIN`, so the inflated
        region is a small lens rather than a single point, and scaling
        by ``factor − 1e-3`` leaves it empty — the tolerance the old
        bisection guaranteed.  Returns ``None`` above 16x, else the
        factor and the probe's pair geometry.

        One probe confirms the factor on the region's own emptiness
        test, :func:`repro.geometry.kernels.nonempty_at_scale` (looked
        up on the module at call time, so a wrapper installed there
        sees every probe).  Its geometry is focused on the minimax
        point ``x*``: candidates meet the ≤ 3 discs tight there first,
        and only their survivors meet all ``k`` discs — the same answer
        for any screen, at a fraction of the full ``k × 2P`` cost.
        Only if rounding ever defeats that probe does the bisection of
        :meth:`_bisect_inflation` run.
        """
        centers, radii = kernels.discs_as_arrays(discs)
        point, exact = kernels.minimax_scale(centers, radii)
        factor = max(1.0, exact) + _INFLATION_MARGIN
        if factor > _MAX_INFLATION:
            return None
        geom = kernels.pair_geometry(centers, radii, focus=point)

        def non_empty(scale: float) -> bool:
            return kernels.nonempty_at_scale(geom, scale)

        if not non_empty(factor):
            factor = MLoc._bisect_inflation(non_empty, factor)
            if factor is None:
                return None
        return factor, geom

    @staticmethod
    def _bisect_inflation(non_empty, low: float) -> Optional[float]:
        """Safety net: bisect ``[low, 16]`` for the smallest feasible scale.

        Non-emptiness is monotone in the scale factor, so bisection
        converges to within 1e-3; returns ``None`` when even 16x fails.
        """
        high = _MAX_INFLATION
        if not non_empty(high):
            return None
        for _ in range(40):
            mid = 0.5 * (low + high)
            if non_empty(mid):
                high = mid
            else:
                low = mid
            if high - low < 1e-3:
                break
        return high
