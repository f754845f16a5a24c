"""Intersection region of ``k`` discs — the paper's "intersected area".

The disc-intersection approach (paper Section III-C) estimates a mobile
device's location as the intersection of the maximum coverage discs of
all APs the device communicated with.  This module computes that region
exactly:

* the *vertex set* Δ — all pairwise circle-intersection points that lie
  inside every disc (M-Loc pseudocode, lines 2–10),
* the exact *area* and *centroid* of the region from its arc-polygon
  boundary (straight-edge shoelace core plus one circular segment per
  boundary arc),
* Monte-Carlo estimators used for validation in the test suite and
  the Theorem 2/3 benches.

Δ, nested-disc detection and the Monte-Carlo containment masks come
from the NumPy kernels of :mod:`repro.geometry.kernels` at every disc
count; a region built alone and one built from M-Loc's batched Δ hold
the same bits.

The intersection of discs is convex (an intersection of convex sets), so
its boundary vertices can be ordered by angle around any interior point
and each boundary edge is a single circular arc traversed
counter-clockwise around its supporting circle.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import kernels
from repro.geometry.circle import Circle
from repro.geometry.point import Point, mean_point
from repro.geometry.polygon import polygon_area, polygon_centroid

TWO_PI = 2.0 * math.pi


class DiscIntersection:
    """The intersection region of one or more discs.

    Parameters
    ----------
    discs:
        The coverage discs to intersect.  At least one is required.
    tol:
        Geometric tolerance in meters, scaled internally by the largest
        radius.  Vertices within ``tol`` of each other are merged and
        membership tests allow a ``tol`` slack, which keeps the exact
        circle-intersection points (that sit on two boundaries) inside
        the region despite floating-point rounding.
    precomputed_vertices:
        A Δ that was already computed for this disc set (by
        :func:`repro.geometry.kernels.batch_intersection_vertices` over
        a whole batch, or decoded from a shard's fix), adopted instead
        of being recomputed.  Everything else (nested-disc detection,
        arcs, area) proceeds normally.
    """

    def __init__(self, discs: Sequence[Circle], tol: float = 1e-9,
                 precomputed_vertices: Optional[Sequence[Point]] = None):
        if not discs:
            raise ValueError("DiscIntersection requires at least one disc")
        self.discs: List[Circle] = list(discs)
        max_radius = max(disc.radius for disc in self.discs)
        self._tol = tol * max(1.0, max_radius)
        # Boundary arcs as (circle, start_angle, sweep); computed on
        # first use — the M-Loc vertex-centroid hot path never needs
        # them, only area / exact-centroid queries do.
        self._arcs_cache: Optional[List[Tuple[Circle, float, float]]] = None
        # When the region is exactly one disc nested inside all others.
        self._full_disc: Optional[Circle] = None
        self._empty = False
        if precomputed_vertices is None:
            # Δ is the batch kernel on a batch of one: the same bits
            # M-Loc's batched path computes for this disc set.
            centers, radii = kernels.discs_as_arrays(self.discs)
            (coords,) = kernels.batch_intersection_vertices(
                centers[None], radii[None], tol)
            precomputed_vertices = kernels.array_as_points(coords)
        self._build(list(precomputed_vertices))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self, vertices: List[Point]) -> None:
        if len(vertices) <= 1:
            # No vertex, or one tangency point.  A disc nested in all
            # the others makes the region that whole disc — also when it
            # touches a container from inside, which yields the one
            # vertex — and Δ then counts as empty, as for strict
            # nesting.  Otherwise the region is a single point or empty.
            self._full_disc = self._find_nested_disc()
            if self._full_disc is not None:
                vertices = []
            self._empty = not vertices and self._full_disc is None
            self._arcs_cache = []
        self._vertices = vertices

    @property
    def _arcs(self) -> List[Tuple[Circle, float, float]]:
        if self._arcs_cache is None:
            self._arcs_cache = self._compute_arcs(self._vertices)
        return self._arcs_cache

    def _contains_with_tol(self, point: Point) -> bool:
        return all(disc.contains(point, self._tol) for disc in self.discs)

    def _find_nested_disc(self) -> Optional[Circle]:
        """Disc contained in all others, if any (region = that disc).

        The smallest nested disc wins, the earliest one on ties.
        """
        if len(self.discs) == 1:
            return self.discs[0]
        centers, radii = kernels.discs_as_arrays(self.discs)
        nested = np.nonzero(
            kernels.nested_disc_mask(centers, radii, self._tol))[0]
        if nested.size == 0:
            return None
        best = min(nested, key=lambda idx: (radii[idx], idx))
        return self.discs[int(best)]

    def _compute_arcs(
        self, vertices: List[Point]
    ) -> List[Tuple[Circle, float, float]]:
        """Boundary arcs between consecutive vertices (CCW order).

        Each arc is returned as ``(circle, start_angle, sweep)`` where
        ``sweep`` in ``(0, 2π)`` is the counter-clockwise angular extent
        around the circle's own center.
        """
        interior = mean_point(vertices)
        ordered = sorted(vertices,
                         key=lambda v: math.atan2(v.y - interior.y,
                                                  v.x - interior.x))
        arcs: List[Tuple[Circle, float, float]] = []
        count = len(ordered)
        boundary_tol = max(self._tol * 10.0, 1e-7)
        for i in range(count):
            start = ordered[i]
            end = ordered[(i + 1) % count]
            arc = self._supporting_arc(start, end, boundary_tol)
            if arc is not None:
                arcs.append(arc)
        return arcs

    def _supporting_arc(
        self, start: Point, end: Point, boundary_tol: float
    ) -> Optional[Tuple[Circle, float, float]]:
        """Find the disc whose boundary forms the region edge start→end."""
        best: Optional[Tuple[Circle, float, float]] = None
        for disc in self.discs:
            if disc.radius <= 0.0:
                continue
            if not (disc.on_boundary(start, boundary_tol)
                    and disc.on_boundary(end, boundary_tol)):
                continue
            angle_start = math.atan2(start.y - disc.center.y,
                                     start.x - disc.center.x)
            angle_end = math.atan2(end.y - disc.center.y,
                                   end.x - disc.center.x)
            sweep = (angle_end - angle_start) % TWO_PI
            if sweep <= 0.0:
                sweep = TWO_PI if start.is_close(end, boundary_tol) else sweep
            midpoint = disc.point_at(angle_start + sweep / 2.0)
            if self._contains_with_tol(midpoint):
                # Prefer the tightest arc when several discs coincide.
                if best is None or sweep < best[2]:
                    best = (disc, angle_start, sweep)
        return best

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the discs have no common point."""
        return self._empty

    @property
    def vertices(self) -> List[Point]:
        """The paper's Δ: pairwise intersection points inside all discs."""
        return list(self._vertices)

    def vertex_centroid(self) -> Optional[Point]:
        """``AVG(Δ)`` — the location estimate of the paper's M-Loc.

        Returns ``None`` when Δ is empty (the paper's pseudocode is
        undefined there; callers apply documented fallbacks).
        """
        if not self._vertices:
            return None
        return mean_point(self._vertices)

    def contains(self, point: Point, tol: Optional[float] = None) -> bool:
        """True when ``point`` lies in every disc."""
        slack = self._tol if tol is None else tol
        return all(disc.contains(point, slack) for disc in self.discs)

    @property
    def area(self) -> float:
        """Exact area of the intersection region in square meters."""
        if self._empty:
            return 0.0
        if self._full_disc is not None:
            return self._full_disc.area
        vertices = self._vertices
        if len(vertices) < 2:
            return 0.0
        ordered = self._ordered_vertices()
        total = abs(polygon_area(ordered))
        for circle, _, sweep in self._arcs:
            total += _segment_area(circle.radius, sweep)
        return total

    def centroid(self) -> Optional[Point]:
        """Exact area centroid of the region (``None`` when empty).

        For a single-point region (tangency) the point itself is
        returned; for a nested-disc region the disc center.
        """
        if self._empty:
            return None
        if self._full_disc is not None:
            return self._full_disc.center
        vertices = self._vertices
        if len(vertices) == 1:
            return vertices[0]
        ordered = self._ordered_vertices()
        poly_area = abs(polygon_area(ordered))
        weighted_x = 0.0
        weighted_y = 0.0
        total_area = 0.0
        if poly_area > 0.0:
            core = polygon_centroid(ordered)
            weighted_x += core.x * poly_area
            weighted_y += core.y * poly_area
            total_area += poly_area
        for circle, start_angle, sweep in self._arcs:
            seg_area = _segment_area(circle.radius, sweep)
            if seg_area <= 0.0:
                continue
            seg_centroid = _segment_centroid(circle, start_angle, sweep)
            weighted_x += seg_centroid.x * seg_area
            weighted_y += seg_centroid.y * seg_area
            total_area += seg_area
        if total_area <= 0.0:
            # Degenerate sliver: fall back to the vertex mean.
            return mean_point(vertices)
        return Point(weighted_x / total_area, weighted_y / total_area)

    def _ordered_vertices(self) -> List[Point]:
        vertices = self._vertices
        if len(vertices) < 3:
            return list(vertices)
        interior = mean_point(vertices)
        return sorted(vertices,
                      key=lambda v: math.atan2(v.y - interior.y,
                                               v.x - interior.x))

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """Axis-aligned bounding box ``(min_x, min_y, max_x, max_y)``.

        The box is the intersection of the per-disc boxes, so it bounds
        the region tightly enough for rejection sampling.
        """
        min_x = max(d.center.x - d.radius for d in self.discs)
        max_x = min(d.center.x + d.radius for d in self.discs)
        min_y = max(d.center.y - d.radius for d in self.discs)
        max_y = min(d.center.y + d.radius for d in self.discs)
        return (min_x, min_y, max_x, max_y)

    # ------------------------------------------------------------------
    # Monte Carlo validation helpers
    # ------------------------------------------------------------------

    def _sample_mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Which samples land inside every disc (zero slack).

        One ``samples × discs`` distance-matrix containment mask instead
        of a per-sample Python ``contains`` loop — these estimators
        dominate the Theorem 2/3 validation benches.
        """
        centers, radii = kernels.discs_as_arrays(self.discs)
        points = np.column_stack((xs, ys))
        return kernels.contains_all(points, centers, radii, slack=0.0)

    def monte_carlo_area(self, rng: np.random.Generator,
                         samples: int = 20000) -> float:
        """Estimate the region area by rejection sampling (validation)."""
        min_x, min_y, max_x, max_y = self.bounding_box()
        if min_x >= max_x or min_y >= max_y:
            return 0.0
        xs = rng.uniform(min_x, max_x, samples)
        ys = rng.uniform(min_y, max_y, samples)
        hits = int(np.count_nonzero(self._sample_mask(xs, ys)))
        return (max_x - min_x) * (max_y - min_y) * hits / samples

    def monte_carlo_centroid(self, rng: np.random.Generator,
                             samples: int = 20000) -> Optional[Point]:
        """Estimate the region centroid by rejection sampling."""
        min_x, min_y, max_x, max_y = self.bounding_box()
        if min_x >= max_x or min_y >= max_y:
            return None
        xs = rng.uniform(min_x, max_x, samples)
        ys = rng.uniform(min_y, max_y, samples)
        inside = self._sample_mask(xs, ys)
        hits = int(np.count_nonzero(inside))
        if hits == 0:
            return None
        return Point(float(xs[inside].sum()) / hits,
                     float(ys[inside].sum()) / hits)


def _segment_area(radius: float, sweep: float) -> float:
    """Area of the circular segment between a chord and its CCW arc."""
    return 0.5 * radius * radius * (sweep - math.sin(sweep))


def _segment_centroid(circle: Circle, start_angle: float,
                      sweep: float) -> Point:
    """Centroid of the circular segment cut by the arc's chord.

    The centroid lies on the bisector of the arc, at distance
    ``4 R sin^3(θ) / (3 (2θ - sin 2θ))`` from the circle center, where
    ``θ = sweep / 2`` is the half-angle.
    """
    half = sweep / 2.0
    denom = sweep - math.sin(sweep)
    if denom <= 0.0:
        return circle.point_at(start_angle + half)
    distance = (4.0 * circle.radius * math.sin(half) ** 3) / (3.0 * denom)
    mid_angle = start_angle + half
    return Point(circle.center.x + distance * math.cos(mid_angle),
                 circle.center.y + distance * math.sin(mid_angle))

