"""NumPy kernels for the disc intersection, the program's only path.

The paper's localization core (M-Loc pseudocode, Theorems 2/3) reduces
to dense small-matrix arithmetic: all pairwise circle-intersection
points of a disc set, an all-candidates × all-discs containment mask,
vertex dedup, and nested-disc detection.  These kernels compute every
one of them, at every disc count, for
:class:`~repro.geometry.region.DiscIntersection`, ``MLoc``'s radius
inflation and ``Localizer.locate_batch`` alike — a single Γ is a batch
of one, so single and batched answers are the same bits.

Planar points ride in complex128 internally (``x + iy``): one complex
array op replaces two float ones, which matters because the per-set
arrays are tiny (``k`` discs, ``k(k-1)/2`` pairs) and NumPy dispatch
overhead — not FLOPs — is the cost.  For the same reason the batch
kernel (:func:`batch_intersection_vertices`) stacks *many* disc sets of
equal ``k`` into ``(B, …)`` arrays so a whole micro-batch amortizes one
dispatch sequence.

Containment has one kernel, :func:`_inside_all`.  M-Loc's inflation
probe and inflated Δ give it a *screen* — the ≤ 3 discs tight at the
minimax point, carried by :class:`PairGeometry` — so candidates meet
those discs first and only the survivors meet all ``k``.  Containment
is a per-(candidate, disc) conjunction with the same arithmetic either
way, so any screen yields the same bits; it changes only the cost.

The kernels follow the per-pair arithmetic of
:func:`repro.geometry.circle.circle_intersections` (same operation
order, same tolerance comparisons, same candidate emission order); the
property tests in ``tests/test_geometry_kernels.py`` pin them at 1e-9
to per-pair scalar reference loops kept in ``tests/helpers.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.circle import Circle
from repro.geometry.point import Point

#: Default tolerance of :func:`repro.geometry.circle.circle_intersections`.
INTERSECT_TOL = 1e-12


# ----------------------------------------------------------------------
# Array packing / unpacking
# ----------------------------------------------------------------------

def discs_as_arrays(discs: Sequence[Circle]) -> Tuple[np.ndarray, np.ndarray]:
    """Split a disc sequence into a ``(n, 2)`` center array and ``(n,)``
    radius array — the layout the public kernels consume."""
    n = len(discs)
    centers = np.empty((n, 2), dtype=np.float64)
    radii = np.empty(n, dtype=np.float64)
    for index, disc in enumerate(discs):
        center = disc.center
        centers[index, 0] = center.x
        centers[index, 1] = center.y
        radii[index] = disc.radius
    return centers, radii


def array_as_points(coords: np.ndarray) -> List[Point]:
    """Unpack an ``(m, 2)`` coordinate array into :class:`Point` objects."""
    return [Point(float(x), float(y)) for x, y in coords]


@lru_cache(maxsize=256)
def _triu_indices(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached upper-triangle pair indices (kernels never mutate them)."""
    return np.triu_indices(n, k=1)


def _as_complex(centers: np.ndarray) -> np.ndarray:
    """``(…, 2)`` float coordinates → ``(…,)`` complex ``x + iy``."""
    return centers[..., 0] + 1j * centers[..., 1]


def _as_coords(z: np.ndarray) -> np.ndarray:
    """``(m,)`` complex points → ``(m, 2)`` float coordinates."""
    return np.column_stack((z.real, z.imag))


# ----------------------------------------------------------------------
# Pairwise circle intersection
# ----------------------------------------------------------------------

def _candidate_points(z_i: np.ndarray, delta: np.ndarray, dist: np.ndarray,
                      r_i: np.ndarray, r_j: np.ndarray,
                      tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized core of :func:`circle_intersections` over pair arrays.

    All inputs share an arbitrary leading shape (``(P,)`` per-set,
    ``(B, P)`` batched).  Returns ``(…, 2)`` complex candidate points
    and a matching validity mask: disjoint / nested / concentric pairs
    contribute nothing, tangent pairs one point (slot 0), crossing
    pairs two — the same emission rule as :func:`circle_intersections`.
    """
    separated = dist > tol
    crossing = (separated
                & (dist <= r_i + r_j + tol)
                & (dist >= np.abs(r_i - r_j) - tol))
    safe = np.where(separated, dist, 1.0)
    along = (dist * dist + r_i * r_i - r_j * r_j) / (2.0 * safe)
    half = np.sqrt(np.maximum(r_i * r_i - along * along, 0.0))
    tangent = half <= tol * np.maximum(1.0, r_i + r_j)
    unit = delta / safe
    foot = z_i + along * unit
    # i·unit·half has components (-u_y·h, u_x·h) — the chord offset.
    offset = 1j * unit * half
    candidates = np.stack((foot + offset, foot - offset), axis=-1)
    candidates[..., 0] = np.where(tangent, foot, candidates[..., 0])
    valid = np.stack((crossing, crossing & ~tangent), axis=-1)
    return candidates, valid


@dataclass
class PairGeometry:
    """Scale-independent pairwise geometry of one disc set.

    Precomputed once, reusable across every radius scale probed:
    center separations never change when radii are inflated, so each
    ``non_empty(scale)`` query is pure array arithmetic on these
    buffers.
    """

    z: np.ndarray         # (n,) disc centers, complex
    radii: np.ndarray     # (n,)
    z_i: np.ndarray       # (P,) first center of each i<j pair
    r_i: np.ndarray       # (P,)
    r_j: np.ndarray       # (P,)
    delta: np.ndarray     # (P,) center_j - center_i, complex
    dist: np.ndarray      # (P,) center separation
    #: Disc indices every candidate is tested against first (see
    #: :func:`_inside_all`); ``None`` tests all discs at once.
    screen: Optional[np.ndarray] = None


def pair_geometry(centers: np.ndarray, radii: np.ndarray,
                  focus: Optional[np.ndarray] = None) -> PairGeometry:
    """Precompute the upper-triangle pair deltas of a disc set.

    Pairs are ordered lexicographically (``i < j``), the pseudocode's
    ``for i: for j in range(i+1, n)`` loop, so downstream dedup keeps
    the first representative point of each tangency cluster.

    ``focus`` is a point where the scaled discs are about to meet —
    M-Loc passes the minimax point ``x*`` of :func:`minimax_scale`.
    The three discs with the largest ``|focus−c_i|/r_i`` (the ones
    tight there) become the containment screen: scaled just past
    ``s*`` their intersection is a small lens around ``x*``, so they
    reject nearly every pairwise candidate before the rest are read.
    With three discs or fewer the screen would hold them all, and none
    is set.
    """
    z = _as_complex(centers)
    i_idx, j_idx = _triu_indices(len(radii))
    z_i = z[i_idx]
    delta = z[j_idx] - z_i
    screen = None
    if focus is not None and len(radii) > 3:
        ratios = np.abs(z - complex(focus[0], focus[1])) / radii
        screen = np.argsort(ratios)[-3:]
    return PairGeometry(z=z, radii=radii, z_i=z_i,
                        r_i=radii[i_idx], r_j=radii[j_idx],
                        delta=delta, dist=np.abs(delta), screen=screen)


# ----------------------------------------------------------------------
# Containment / nesting
# ----------------------------------------------------------------------

def contains_all(points: np.ndarray, centers: np.ndarray,
                 radii: np.ndarray, slack: float = 0.0) -> np.ndarray:
    """``(m,)`` bool — which points lie inside *every* disc.

    One all-points × all-discs mask: point ``p`` is inside disc ``d``
    when it lies in the closed disc with ``slack`` meters of tolerance,
    as in :meth:`Circle.contains`.
    """
    if points.size == 0:
        return np.empty(0, dtype=bool)
    return _inside_all(_as_complex(points), _as_complex(centers),
                       radii + slack)


def _inside_all(candidates: np.ndarray, z: np.ndarray, reach: np.ndarray,
                screen: Optional[np.ndarray] = None) -> np.ndarray:
    """``(…, m)`` bool — which candidates lie within ``reach`` of every
    center: the one containment kernel.

    Candidate ``c`` is inside disc ``d`` when
    ``|c − z_d|² <= reach_d²``.  Leading axes broadcast, so a
    ``(B, m)`` batch against ``(B, k)`` discs is one mask.

    ``screen`` (1-D candidates only) names discs to test first; only
    the candidates inside all of them are then tested against every
    disc.  The mask is the same bits for any screen — empty, partial,
    or all discs — because containment is a per-(candidate, disc)
    conjunction computed with the same arithmetic either way: a
    candidate the screen rejects fails a disc it would fail in the
    full mask too, and a survivor gets the full row.  Only the cost
    depends on the screen.
    """
    if screen is not None and len(screen) < len(z):
        inside = _inside_all(candidates, z[screen], reach[screen])
        survivors = np.flatnonzero(inside)
        inside[survivors] = _inside_all(candidates[survivors], z, reach)
        return inside
    # Discs on the second-to-last axis: the reduction then runs across
    # whole candidate rows instead of over a short inner axis per
    # candidate, which costs ~10x at k = 3.
    w = candidates[..., None, :] - z[..., :, None]
    limit = reach * reach
    return (w.real ** 2 + w.imag ** 2 <= limit[..., :, None]).all(axis=-2)


def nested_disc_mask(centers: np.ndarray, radii: np.ndarray,
                     slack: float = 0.0) -> np.ndarray:
    """``(n,)`` bool — which discs are contained in all the others.

    Vectorized :meth:`Circle.contains_circle` applied row-wise: disc
    ``c`` is nested when ``dist(c, j) + r_c <= r_j + slack`` for all
    ``j`` (the diagonal is trivially true).
    """
    z = _as_complex(centers)
    dist = np.abs(z[:, None] - z[None, :])
    return (dist + radii[:, None] <= radii[None, :] + slack).all(axis=1)


# ----------------------------------------------------------------------
# Vertex dedup
# ----------------------------------------------------------------------

def _dedupe_complex(z: np.ndarray, tol: float) -> np.ndarray:
    """Merge points within ``tol`` in Chebyshev distance, keep-first.

    A point is dropped when it is within ``tol`` of an already *kept*
    point, so a chain of near-duplicates ``a~b~c`` with ``a!~c`` keeps
    ``a`` and ``c``.
    """
    count = len(z)
    if count <= 1:
        return z
    # m here is the handful of surviving region vertices, so the short
    # greedy Python loop is cheaper than any vectorized approximation
    # (which could not reproduce keep-first chain semantics anyway).
    kept: List[complex] = []
    for value in z.tolist():
        close = False
        for existing in kept:
            diff = value - existing
            if abs(diff.real) <= tol and abs(diff.imag) <= tol:
                close = True
                break
        if not close:
            kept.append(value)
    if len(kept) == count:
        return z
    return np.array(kept, dtype=np.complex128)


# ----------------------------------------------------------------------
# Vertex kernels
# ----------------------------------------------------------------------

def batch_intersection_vertices(centers: np.ndarray, radii: np.ndarray,
                                tol: float = 1e-9) -> List[np.ndarray]:
    """Δ for a whole batch of ``k``-disc sets in one dispatch sequence.

    The one Δ kernel: :class:`~repro.geometry.region.DiscIntersection`
    runs it on a batch of one, ``MLoc.locate_batch`` on every disc set
    of equal ``k`` at once, and the two agree bit for bit.

    Parameters
    ----------
    centers:
        ``(B, k, 2)`` disc centers, one row of ``k`` discs per set.
    radii:
        ``(B, k)`` matching radii.
    tol:
        The per-set :class:`DiscIntersection` tolerance parameter; the
        effective slack is scaled by each set's largest radius exactly
        as the region constructor does.

    Returns one ``(m_b, 2)`` vertex array per set, in input order.
    Candidate generation and the candidates × discs containment mask
    run as single ``(B, P, …)`` array ops; only the final per-set
    gather/dedup (a few vertices each) runs in Python.
    """
    batch, k = radii.shape
    if k < 2:
        return [np.empty((0, 2), dtype=np.float64)] * batch
    z = _as_complex(centers)                              # (B, k)
    slack = tol * np.maximum(1.0, radii.max(axis=1))      # (B,)
    i_idx, j_idx = _triu_indices(k)
    z_i = z[:, i_idx]                                     # (B, P)
    delta = z[:, j_idx] - z_i
    candidates, valid = _candidate_points(
        z_i, delta, np.abs(delta),
        radii[:, i_idx], radii[:, j_idx], INTERSECT_TOL)  # (B, P, 2)
    # Candidates × discs containment, one (B, k, 2P) mask for the batch.
    flat = candidates.reshape(batch, -1)                  # (B, 2P)
    inside_all = _inside_all(flat, z, radii + slack[:, None])
    keep = valid.reshape(batch, -1) & inside_all          # (B, 2P)
    dedupe_tol = slack * 10.0
    return [
        _as_coords(_dedupe_complex(flat[b][keep[b]], float(dedupe_tol[b])))
        for b in range(batch)
    ]


def separated_pair_mask(centers: np.ndarray, radii: np.ndarray,
                        tol: float = 1e-9) -> np.ndarray:
    """``(B,)`` bool — which ``k``-disc sets are provably empty.

    A set is empty when two of its discs are farther apart than
    ``r_i + r_j + 2·slack``, where ``slack = tol·max(1, max r)`` is the
    :class:`~repro.geometry.region.DiscIntersection` containment
    tolerance: no point lies within slack of both discs, so no vertex
    survives and no disc is nested in all the others.  Costs ``(B, P)``
    — no candidate × disc tensor.
    """
    slack = tol * np.maximum(1.0, radii.max(axis=1))
    i_idx, j_idx = _triu_indices(radii.shape[1])
    z = _as_complex(centers)
    dist = np.abs(z[:, j_idx] - z[:, i_idx])
    reach = radii[:, i_idx] + radii[:, j_idx] + 2.0 * slack[:, None]
    return (dist > reach).any(axis=1)


def intersection_vertices_pruned(centers: np.ndarray, radii: np.ndarray,
                                 pair_i: np.ndarray, pair_j: np.ndarray,
                                 contain_slack: float,
                                 dedupe_tol: float) -> np.ndarray:
    """Δ from an explicit candidate pair list instead of all pairs.

    The caller supplies the ``i < j`` pairs worth intersecting —
    typically from :class:`repro.geometry.grid.SpatialGrid` restricted
    to pairs within ``r_i + r_j`` — and this computes exactly the
    vertex set :func:`batch_intersection_vertices` would: pairs farther
    apart than the radius sum emit no candidates in the full kernel
    either, so pruning them changes nothing but the cost.  Pairs must
    be in lexicographic ``(i, j)`` order for the keep-first dedup to
    match the all-pairs emission order.
    """
    if len(pair_i) == 0:
        return np.empty((0, 2), dtype=np.float64)
    z = _as_complex(centers)
    z_i = z[pair_i]
    delta = z[pair_j] - z_i
    candidates, valid = _candidate_points(
        z_i, delta, np.abs(delta), radii[pair_i], radii[pair_j],
        INTERSECT_TOL)
    flat = candidates.reshape(-1)[valid.reshape(-1)]
    if flat.size == 0:
        return np.empty((0, 2), dtype=np.float64)
    surviving = flat[_inside_all(flat, z, radii + contain_slack)]
    return _as_coords(_dedupe_complex(surviving, dedupe_tol))


# ----------------------------------------------------------------------
# Feasibility scan (M-Loc radius inflation)
# ----------------------------------------------------------------------

def _surviving_candidates(geom: PairGeometry, scale: float,
                          slack: float) -> np.ndarray:
    """The pairwise candidates at ``scale`` inside every scaled disc,
    complex, in emission order (screened by ``geom.screen``)."""
    if not geom.dist.size:
        return np.empty(0, dtype=np.complex128)
    candidates, valid = _candidate_points(
        geom.z_i, geom.delta, geom.dist,
        geom.r_i * scale, geom.r_j * scale, INTERSECT_TOL)
    flat = candidates.reshape(-1)[valid.reshape(-1)]
    return flat[_inside_all(flat, geom.z, geom.radii * scale + slack,
                            geom.screen)]


def _scaled_slack(geom: PairGeometry, scale: float, base_tol: float
                  ) -> float:
    """The region's containment slack for the discs scaled by ``scale``."""
    return base_tol * max(1.0, float((geom.radii * scale).max()))


def nonempty_at_scale(geom: PairGeometry, scale: float,
                      base_tol: float = 1e-9) -> bool:
    """Whether the disc set intersects when all radii are scaled.

    The vectorized equivalent of building a ``DiscIntersection`` on
    scaled discs and reading ``is_empty``: non-empty when any pairwise
    candidate survives containment *or* some disc is nested in all
    others (which covers ``k = 1``).  ``base_tol`` reproduces the
    region's radius-scaled tolerance.  ``geom.screen`` only changes the
    cost of the containment test, never its answer.
    """
    slack = _scaled_slack(geom, scale, base_tol)
    if _surviving_candidates(geom, scale, slack).size:
        return True
    radii_s = geom.radii * scale
    dist = np.abs(geom.z[:, None] - geom.z[None, :])
    nested = (dist + radii_s[:, None] <= radii_s[None, :] + slack)
    return bool(nested.all(axis=1).any())


def vertices_at_scale(geom: PairGeometry, scale: float) -> np.ndarray:
    """Δ of the disc set with every radius scaled, as ``(m, 2)`` coords.

    The same bits :func:`batch_intersection_vertices` gives on the
    scaled discs at its default tolerance (same candidate arithmetic,
    slack, containment and keep-first dedup), computed from the
    probe's :class:`PairGeometry` — so M-Loc's inflated region reuses
    its screen instead of rebuilding the whole candidates × discs
    tensor.
    """
    slack = _scaled_slack(geom, scale, 1e-9)
    surviving = _surviving_candidates(geom, scale, slack)
    return _as_coords(_dedupe_complex(surviving, slack * 10.0))


def minimax_scale(centers: np.ndarray, radii: np.ndarray
                  ) -> Tuple[np.ndarray, float]:
    """The smallest radius scale at which the discs share a point.

    That scale is the weighted minimax ``s* = min_x max_i |x−c_i|/r_i``
    and the minimizing ``x`` is the single point the scaled discs then
    share.  The problem is LP-type: by Helly's theorem at most three
    discs (the *basis*) determine the optimum, and the optimum of any
    superset that the basis solution already satisfies is the same.

    The solver is the incremental basis update behind Welzl's
    move-to-front algorithm, pivoting on the most violated disc (as in
    Gärtner's miniball): starting from disc 0 alone, while some disc's
    ratio exceeds the current scale, re-solve the ≤ 4-disc problem
    "basis ∪ {violator}" exactly and keep its basis.  The scale rises
    strictly with every pivot, so no basis repeats and the loop ends.
    There is no RNG — the same discs in the same order always give the
    same bits.

    Returns ``(point, scale)`` with ``point`` a ``(2,)`` array.  The
    scale is the largest ratio recomputed at the returned point, so it
    is a value the point actually attains (never below ``s*``).
    """
    if len(radii) == 0:
        raise ValueError("minimax_scale requires at least one disc")
    z = _as_complex(np.asarray(centers, dtype=np.float64))
    weights = 1.0 / np.asarray(radii, dtype=np.float64)
    zs = z.tolist()
    rs = [float(r) for r in radii]
    basis = [0]
    point, scale = zs[0], 0.0
    while True:
        ratios = np.abs(z - point) * weights
        worst = int(np.argmax(ratios))
        if ratios[worst] <= scale * (1.0 + 1e-12):
            break
        new_basis, new_point, new_scale = _solve_small(
            basis + [worst], zs, rs)
        if new_scale <= scale:
            break  # rounding stall: the current basis is already exact
        basis, point, scale = new_basis, new_point, new_scale
    return np.array([point.real, point.imag]), float(ratios[worst])


def _solve_small(members: List[int], zs: List[complex], rs: List[float]
                 ) -> Tuple[List[int], complex, float]:
    """Exact minimax over at most four discs, by basis enumeration.

    Every 1-, 2- and 3-subset proposes the point its basis formula
    gives; each proposal is scored by the largest ratio it attains
    over *all* members, and the lowest score wins.  The true optimum
    is one of the proposals and no proposal scores below it, so the
    winner is exact — and a numerically poor proposal (a nearly
    collinear triple) simply loses.
    """
    best: Tuple[List[int], complex, float] = ([], 0j, math.inf)
    for size in (1, 2, 3):
        for subset in itertools.combinations(members, size):
            point = _basis_point(subset, zs, rs)
            if point is None:
                continue
            score = max(abs(point - zs[m]) / rs[m] for m in members)
            if score < best[2]:
                best = (list(subset), point, score)
    return best


def _basis_point(subset: Sequence[int], zs: List[complex],
                 rs: List[float]) -> Optional[complex]:
    """The point where every disc of ``subset`` is tight at the least scale.

    One disc: its center.  Two: the point dividing the center segment
    in the ratio of the radii.  Three: subtracting the squared
    equations ``|x−c_m|² = t·r_m²`` leaves ``x`` affine in ``t = s²``;
    substituting back gives a quadratic in ``t`` whose smallest
    non-negative root is the first scale at which the three circles
    meet.  ``None`` when a triple is collinear or has no common point
    (a pair then determines its optimum).
    """
    if len(subset) == 1:
        return zs[subset[0]]
    if len(subset) == 2:
        i, j = subset
        return zs[i] + (zs[j] - zs[i]) * (rs[i] / (rs[i] + rs[j]))
    i, j, k = subset
    a_j, a_k = zs[j] - zs[i], zs[k] - zs[i]
    cross = a_j.real * a_k.imag - a_j.imag * a_k.real
    # 2·a_m·u = |a_m|² + t·(r_i² − r_m²) for m ∈ {j, k}, u = x − c_i.
    p_j, p_k = _squared_norm(a_j), _squared_norm(a_k)
    # Degenerate against the longer side: a side of denormal length
    # beside a long one must not pass, or Cramer's rule overflows.
    if abs(cross) <= 1e-12 * max(p_j, p_k):
        return None
    r_i2 = rs[i] * rs[i]
    q_j, q_k = r_i2 - rs[j] * rs[j], r_i2 - rs[k] * rs[k]

    def solve(rhs_j: float, rhs_k: float) -> complex:
        # Cramer's rule on the 2x2 system with rows 2·a_j, 2·a_k.
        det = 2.0 * cross
        return complex((rhs_j * a_k.imag - rhs_k * a_j.imag) / det,
                       (a_j.real * rhs_k - a_k.real * rhs_j) / det)

    u0, u1 = solve(p_j, p_k), solve(q_j, q_k)
    # |u0 + t·u1|² = t·r_i²  →  qa·t² + qb·t + qc = 0.
    qa = _squared_norm(u1)
    if not math.isfinite(qa):
        return None  # a triangle far smaller than its radii: use pairs
    qb = 2.0 * (u0.real * u1.real + u0.imag * u1.imag) - r_i2
    qc = _squared_norm(u0)
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0 or qb == 0.0:  # qb = 0 would need r_i = 0
        return None
    # The numerically stable pair of roots (|half| >= |qb| > 0); equal
    # radii make qa = 0 and leave only the finite one.
    half = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    roots = [root for root in [qc / half] + ([half / qa] if qa else [])
             if root >= 0.0]
    if not roots:
        return None
    return zs[i] + u0 + min(roots) * u1


def _squared_norm(value: complex) -> float:
    """``|value|²``, ``inf`` past the float range (``** 2`` would raise)."""
    norm = abs(value)
    return norm * norm
