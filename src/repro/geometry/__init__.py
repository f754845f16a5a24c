"""Planar geometry substrate for the disc-intersection localization attack.

The paper's three localization algorithms (M-Loc, AP-Rad, AP-Loc) all
reduce to one geometric primitive: the intersection of ``k`` discs (each
an AP's maximum coverage area).  This package provides:

* :class:`Point` and :class:`Circle` primitives,
* pairwise circle intersection (:func:`circle_intersections`) and lens
  area (:func:`lens_area`),
* :class:`DiscIntersection` — the intersection region of ``k`` discs with
  *exact* area and centroid computed from its arc-polygon boundary, plus
  the paper's vertex set Δ and vertex centroid, and Monte-Carlo
  estimators used for validation,
* polygon helpers (shoelace area / centroid),
* the NumPy kernels (:mod:`repro.geometry.kernels`) that compute Δ,
  nested discs and the inflation probe for :class:`DiscIntersection`
  and the batch localizers alike, at every disc count.

All coordinates are planar (meters in a local ENU tangent plane; see
:mod:`repro.geo`).
"""

from repro.geometry.point import Point
from repro.geometry.circle import (
    Circle,
    circle_intersections,
    lens_area,
)
from repro.geometry.polygon import polygon_area, polygon_centroid
from repro.geometry.region import DiscIntersection
from repro.geometry import kernels
from repro.geometry.grid import SpatialGrid

__all__ = [
    "SpatialGrid",
    "Point",
    "Circle",
    "circle_intersections",
    "lens_area",
    "polygon_area",
    "polygon_centroid",
    "DiscIntersection",
    "kernels",
]
