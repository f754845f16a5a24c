"""The geometry kernels agree with the scalar reference loops.

The program computes Δ, nested discs and the inflation probe only with
the NumPy kernels.  The per-pair scalar loops of M-Loc's pseudocode
(``circle_intersections`` plus the reference helpers in
``tests.helpers``) are the reference: these property tests pin the
kernels to them at 1e-9 over randomized disc sets plus the constructed
edge cases (tangency, nested discs, empty intersections, concentric
circles).
"""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.geometry import kernels
from repro.geometry.circle import Circle, circle_intersections
from repro.geometry.point import Point
from repro.geometry.region import DiscIntersection

from tests.helpers import (
    reference_is_empty,
    reference_nested_disc,
    reference_vertices,
)

TOL = 1e-9


def random_disc_set(rng, k, spread=60.0, r_low=40.0, r_high=140.0):
    """k discs scattered so intersections are non-trivial but common."""
    cx, cy = rng.uniform(-50.0, 50.0, 2)
    return [
        Circle(Point(float(cx + rng.uniform(-spread, spread)),
                     float(cy + rng.uniform(-spread, spread))),
               float(rng.uniform(r_low, r_high)))
        for _ in range(k)
    ]


def assert_regions_agree(discs):
    """The kernel-built region against one built from the reference Δ."""
    fast = DiscIntersection(discs)
    raw = reference_vertices(discs)
    scalar = DiscIntersection(discs, precomputed_vertices=raw)
    assert fast.is_empty == reference_is_empty(discs)
    if len(raw) <= 1:
        assert fast._full_disc == reference_nested_disc(discs)
    assert len(fast.vertices) == len(scalar.vertices)
    for got, want in zip(fast.vertices, scalar.vertices):
        assert got.is_close(want, TOL)
    assert fast.area == pytest.approx(scalar.area, abs=1e-6, rel=1e-9)
    scalar_centroid = scalar.centroid()
    fast_centroid = fast.centroid()
    if scalar_centroid is None:
        assert fast_centroid is None
    else:
        assert fast_centroid.is_close(scalar_centroid, 1e-6)


class TestVertexAgreement:
    @pytest.mark.parametrize("k", [2, 3, 4, 6, 10])
    def test_randomized_disc_sets(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(40):
            assert_regions_agree(random_disc_set(rng, k))

    def test_far_apart_empty_intersections(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            discs = [
                Circle(Point(float(i * 500.0 + rng.uniform(-10, 10)),
                             float(rng.uniform(-10, 10))),
                       float(rng.uniform(5.0, 40.0)))
                for i in range(4)
            ]
            region = DiscIntersection(discs)
            assert region.is_empty
            assert_regions_agree(discs)

    def test_externally_tangent_pair(self):
        discs = [Circle(Point(0.0, 0.0), 1.0), Circle(Point(3.0, 0.0), 2.0)]
        region = DiscIntersection(discs)
        assert len(region.vertices) == 1
        assert region.vertices[0].is_close(Point(1.0, 0.0), TOL)
        assert_regions_agree(discs)

    def test_internally_tangent_pair(self):
        discs = [Circle(Point(0.0, 0.0), 5.0), Circle(Point(3.0, 0.0), 2.0)]
        assert_regions_agree(discs)

    def test_nested_disc_region_is_full_disc(self):
        discs = [Circle(Point(0.0, 0.0), 50.0),
                 Circle(Point(5.0, 0.0), 10.0),
                 Circle(Point(4.0, 1.0), 20.0)]
        fast = DiscIntersection(discs)
        assert not fast.is_empty
        assert fast.vertices == []
        assert fast._full_disc == reference_nested_disc(discs) == discs[1]
        assert fast.area == pytest.approx(discs[1].area, rel=1e-12)

    def test_concentric_circles(self):
        discs = [Circle(Point(1.0, 2.0), 10.0), Circle(Point(1.0, 2.0), 4.0)]
        assert_regions_agree(discs)

    def test_identical_circles(self):
        discs = [Circle(Point(1.0, 2.0), 10.0), Circle(Point(1.0, 2.0), 10.0)]
        assert_regions_agree(discs)

    def test_single_disc(self):
        discs = [Circle(Point(3.0, 4.0), 25.0)]
        assert_regions_agree(discs)


def pair_vertices(pairs):
    """Δ of each two-disc set, from one batched kernel call."""
    centers = np.array([[(d.center.x, d.center.y) for d in pair]
                        for pair in pairs])
    radii = np.array([[d.radius for d in pair] for pair in pairs])
    return kernels.batch_intersection_vertices(centers, radii)


class TestPairwiseCandidates:
    """Kernel Δ of a disc pair vs scalar circle_intersections.

    Both intersection points of a pair lie on both circles, so a pair's
    Δ is exactly its candidate list.
    """

    @pytest.mark.parametrize("pair", [
        (Circle(Point(0.0, 0.0), 10.0), Circle(Point(12.0, 5.0), 8.0)),
        (Circle(Point(0.0, 0.0), 1.0), Circle(Point(3.0, 0.0), 2.0)),
        (Circle(Point(0.0, 0.0), 5.0), Circle(Point(1.0, 0.0), 2.0)),
        (Circle(Point(0.0, 0.0), 5.0), Circle(Point(0.0, 0.0), 5.0)),
        (Circle(Point(0.0, 0.0), 2.0), Circle(Point(100.0, 0.0), 3.0)),
    ])
    def test_matches_scalar_pairwise(self, pair):
        scalar = circle_intersections(*pair)
        (got,) = pair_vertices([pair])
        assert len(got) == len(scalar)
        for row, want in zip(got, scalar):
            assert abs(row[0] - want.x) <= TOL
            assert abs(row[1] - want.y) <= TOL

    def test_randomized_pairs(self):
        rng = np.random.default_rng(42)
        pairs = [
            [Circle(Point(*map(float, rng.uniform(-50, 50, 2))),
                    float(rng.uniform(1.0, 80.0)))
             for _ in range(2)]
            for _ in range(200)
        ]
        for (a, b), got in zip(pairs, pair_vertices(pairs)):
            scalar = circle_intersections(a, b)
            assert len(got) == len(scalar)
            for row, want in zip(got, scalar):
                assert abs(row[0] - want.x) <= TOL
                assert abs(row[1] - want.y) <= TOL


class TestBatchKernel:
    @pytest.mark.parametrize("k", [2, 3, 6, 10])
    def test_batch_matches_scalar_reference(self, k):
        rng = np.random.default_rng(900 + k)
        disc_sets = [random_disc_set(rng, k) for _ in range(32)]
        centers = np.array([[(d.center.x, d.center.y) for d in s]
                            for s in disc_sets])
        radii = np.array([[d.radius for d in s] for s in disc_sets])
        vertex_sets = kernels.batch_intersection_vertices(centers, radii)
        assert len(vertex_sets) == len(disc_sets)
        for discs, coords in zip(disc_sets, vertex_sets):
            want = reference_vertices(discs)
            assert len(coords) == len(want)
            for row, vertex in zip(coords, want):
                assert abs(row[0] - vertex.x) <= TOL
                assert abs(row[1] - vertex.y) <= TOL

    def test_single_disc_sets_have_no_vertices(self):
        centers = np.zeros((3, 1, 2))
        radii = np.ones((3, 1))
        for coords in kernels.batch_intersection_vertices(centers, radii):
            assert coords.shape == (0, 2)


class TestFeasibilityScan:
    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_nonempty_matches_region_emptiness(self, k):
        rng = np.random.default_rng(300 + k)
        for _ in range(25):
            discs = random_disc_set(rng, k, spread=150.0,
                                    r_low=20.0, r_high=90.0)
            centers, radii = kernels.discs_as_arrays(discs)
            geom = kernels.pair_geometry(centers, radii)
            for scale in (1.0, 1.7, 3.0, 16.0):
                scaled = [Circle(d.center, d.radius * scale) for d in discs]
                want = not reference_is_empty(scaled)
                assert kernels.nonempty_at_scale(geom, scale) == want

    def test_single_disc_always_nonempty(self):
        centers, radii = kernels.discs_as_arrays(
            [Circle(Point(0.0, 0.0), 5.0)])
        geom = kernels.pair_geometry(centers, radii)
        assert kernels.nonempty_at_scale(geom, 1.0)


@st.composite
def weighted_discs(draw, min_k=2, max_k=72, equal_radii=False):
    """``(centers, radii)`` of k discs; duplicated centers included."""
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    coord = st.floats(min_value=-300.0, max_value=300.0,
                      allow_nan=False, allow_infinity=False)
    radius = st.floats(min_value=5.0, max_value=120.0,
                       allow_nan=False, allow_infinity=False)
    centers = np.array(draw(st.lists(st.tuples(coord, coord),
                                     min_size=k, max_size=k)))
    if equal_radii:
        radii = np.full(k, draw(radius))
    else:
        radii = np.array(draw(st.lists(radius, min_size=k, max_size=k)))
    return centers, radii


def enclosing_radius(points):
    """Brute-force minimum enclosing circle radius of ``(n, 2)`` points.

    The optimal center is a pair midpoint or a triple circumcenter, and
    no center encloses with less than the optimum, so the least
    covering radius over those candidates is exact.
    """
    z = points[:, 0] + 1j * points[:, 1]
    candidates = [z[:1]]
    if len(z) > 1:
        i, j = np.triu_indices(len(z), k=1)
        candidates.append(0.5 * (z[i] + z[j]))
    if len(z) > 2:
        a, b, c = (z[list(idx)] for idx in
                   zip(*itertools.combinations(range(len(z)), 3)))
        b, c = b - a, c - a
        det = 2.0 * (b.real * c.imag - b.imag * c.real)
        ok = np.abs(det) > 1e-12 * np.abs(b) * np.abs(c)
        bb, cc = np.abs(b) ** 2, np.abs(c) ** 2
        ux = (c.imag * bb - b.imag * cc)[ok] / det[ok]
        uy = (b.real * cc - c.real * bb)[ok] / det[ok]
        candidates.append(a[ok] + ux + 1j * uy)
    centers = np.concatenate(candidates)
    return float(np.abs(centers[:, None] - z[None, :]).max(axis=1).min())


def pair_bound(centers, radii):
    z = centers[:, 0] + 1j * centers[:, 1]
    i, j = np.triu_indices(len(radii), k=1)
    if not len(i):
        return 0.0
    return float((np.abs(z[j] - z[i]) / (radii[i] + radii[j])).max())


#: Two coincident centers, one a denormal distance above them and one a
#: meter away: a set Hypothesis once drew for the order-free test.
DENORMAL_SIDE_CENTERS = np.array([[0.0, 0.0], [0.0, 0.0],
                                  [0.0, 2.66e-186], [1.0, 0.0]])


class TestMinimaxScale:
    """``minimax_scale`` against closed forms and brute-force oracles."""

    @settings(max_examples=60, deadline=None)
    @given(weighted_discs(min_k=2, max_k=2))
    def test_two_discs_is_distance_over_radius_sum(self, discs):
        centers, radii = discs
        _, scale = kernels.minimax_scale(centers, radii)
        distance = float(np.hypot(*(centers[1] - centers[0])))
        assert scale == pytest.approx(distance / radii.sum(),
                                      rel=1e-12, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(weighted_discs(min_k=1, max_k=30, equal_radii=True))
    def test_equal_radii_is_enclosing_circle_over_radius(self, discs):
        centers, radii = discs
        _, scale = kernels.minimax_scale(centers, radii)
        assert scale == pytest.approx(enclosing_radius(centers) / radii[0],
                                      rel=1e-9, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(weighted_discs(), st.randoms(use_true_random=False))
    @example(discs=(DENORMAL_SIDE_CENTERS, np.array([6.0, 6.0, 5.0, 5.0])),
             rand=random.Random(0))
    def test_exact_bounded_and_order_free(self, discs, rand):
        centers, radii = discs
        point, scale = kernels.minimax_scale(centers, radii)
        z = centers[:, 0] + 1j * centers[:, 1]
        # The returned scale is the one the point attains ...
        attained = float((np.abs(z - complex(*point)) / radii).max())
        assert scale == pytest.approx(attained, rel=1e-14)
        # ... never below the pair lower bound ...
        assert scale >= pair_bound(centers, radii) * (1.0 - 1e-12)
        # ... and the same for any disc order.
        order = list(range(len(radii)))
        rand.shuffle(order)
        _, permuted = kernels.minimax_scale(centers[order], radii[order])
        assert permuted == pytest.approx(scale, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(weighted_discs(max_k=24))
    def test_feasible_exactly_at_the_scale(self, discs):
        centers, radii = discs
        _, scale = kernels.minimax_scale(centers, radii)
        geom = kernels.pair_geometry(centers, radii)
        assert kernels.nonempty_at_scale(geom, scale * (1.0 + 1e-9))
        # The probe's own 1e-9·r slack hides gaps at near-zero scales.
        if scale > 1e-2:
            assert not kernels.nonempty_at_scale(geom, scale * (1.0 - 1e-6))

    @pytest.mark.parametrize("radii", list(itertools.product((5.0, 6.0),
                                                             repeat=4)))
    def test_denormal_side_in_every_order(self, radii):
        # A triple with one side of denormal length beside a unit side
        # is degenerate; taken as a basis it overflowed Cramer's rule.
        radii = np.array(radii)
        scales = set()
        for order in itertools.permutations(range(4)):
            order = list(order)
            point, scale = kernels.minimax_scale(
                DENORMAL_SIDE_CENTERS[order], radii[order])
            assert np.isfinite(point).all()
            scales.add(scale)
        assert max(scales) - min(scales) <= 1e-12
        assert min(scales) >= pair_bound(DENORMAL_SIDE_CENTERS, radii) \
            * (1.0 - 1e-12)

    def test_coincident_centers_scale_zero(self):
        centers = np.array([[3.0, 4.0]] * 4)
        radii = np.array([1.0, 2.0, 3.0, 4.0])
        point, scale = kernels.minimax_scale(centers, radii)
        assert scale == 0.0
        assert tuple(point) == (3.0, 4.0)

    def test_collinear_discs_use_a_pair(self):
        centers = np.array([[0.0, 0.0], [50.0, 0.0], [100.0, 0.0]])
        radii = np.array([10.0, 30.0, 40.0])
        point, scale = kernels.minimax_scale(centers, radii)
        assert scale == pytest.approx(100.0 / 50.0, rel=1e-12)
        assert point[0] == pytest.approx(20.0, rel=1e-12)
        assert point[1] == 0.0

    def test_three_disc_basis(self):
        # An equilateral triangle: no pair determines the optimum; the
        # circumcenter does, with the circumradius over the radius.
        angles = np.array([0.0, 2.0, 4.0]) * np.pi / 3.0
        centers = 60.0 * np.column_stack((np.cos(angles), np.sin(angles)))
        point, scale = kernels.minimax_scale(centers, np.full(3, 20.0))
        assert scale == pytest.approx(3.0, rel=1e-12)
        assert np.allclose(point, 0.0, atol=1e-12)

    def test_requires_a_disc(self):
        with pytest.raises(ValueError):
            kernels.minimax_scale(np.empty((0, 2)), np.empty(0))


@st.composite
def awkward_disc_sets(draw):
    """k = 1…80 discs with the degenerate shapes mixed in: equal-radius
    lattices, concentric, nested and tangent discs."""
    k = draw(st.integers(min_value=1, max_value=80))
    coord = st.floats(min_value=-400.0, max_value=400.0,
                      allow_nan=False, allow_infinity=False)
    radius = st.floats(min_value=5.0, max_value=150.0,
                       allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        # An equal-radius lattice, like M-Loc's large Γ sets.
        spacing = draw(st.floats(min_value=20.0, max_value=150.0))
        width = draw(st.integers(min_value=1, max_value=10))
        centers = [((n % width) * spacing, (n // width) * spacing)
                   for n in range(k)]
        radii = [draw(radius)] * k
    else:
        centers = draw(st.lists(st.tuples(coord, coord),
                                min_size=k, max_size=k))
        radii = draw(st.lists(radius, min_size=k, max_size=k))
    for n in range(1, k):
        kind = draw(st.sampled_from(["free", "concentric", "nested",
                                     "outer-tangent", "inner-tangent"]))
        if kind == "free":
            continue
        m = draw(st.integers(min_value=0, max_value=n - 1))
        (cx, cy), r = centers[m], radii[m]
        angle = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
        if kind == "concentric":
            centers[n] = (cx, cy)
        elif kind == "nested":
            radii[n] = r * draw(st.floats(min_value=0.05, max_value=0.9))
            gap = (r - radii[n]) * draw(st.floats(min_value=0.0,
                                                  max_value=1.0))
            centers[n] = (cx + gap * math.cos(angle),
                          cy + gap * math.sin(angle))
        else:
            gap = (r + radii[n] if kind == "outer-tangent"
                   else abs(r - radii[n]))
            centers[n] = (cx + gap * math.cos(angle),
                          cy + gap * math.sin(angle))
    return np.array(centers, dtype=np.float64), np.array(radii)


@st.composite
def screens(draw, k):
    """An arbitrary screen over ``k`` discs: empty, partial or all."""
    chosen = draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                           unique=True, max_size=k))
    return np.array(chosen, dtype=np.intp)


class TestContainmentScreen:
    """A screen changes the cost of containment, never a bit of it."""

    @settings(max_examples=80, deadline=None)
    @given(awkward_disc_sets(), st.floats(min_value=0.25, max_value=16.0),
           st.data())
    def test_any_screen_gives_the_same_bits(self, discs, scale, data):
        centers, radii = discs
        full = kernels.pair_geometry(centers, radii)
        point, _ = kernels.minimax_scale(centers, radii)
        focused = kernels.pair_geometry(centers, radii, focus=point)
        arbitrary = dataclasses.replace(
            full, screen=data.draw(screens(len(radii))))
        # The inflated Δ the region constructor would compute.
        (want,) = kernels.batch_intersection_vertices(
            centers[None], (radii * scale)[None])
        probe = kernels.nonempty_at_scale(full, scale)
        for geom in (full, focused, arbitrary):
            assert kernels.nonempty_at_scale(geom, scale) == probe
            got = kernels.vertices_at_scale(geom, scale)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(awkward_disc_sets(), st.floats(min_value=0.25, max_value=16.0),
           st.data())
    def test_screened_mask_equals_full_mask(self, discs, scale, data):
        centers, radii = discs
        geom = kernels.pair_geometry(centers, radii)
        candidates, valid = kernels._candidate_points(
            geom.z_i, geom.delta, geom.dist, geom.r_i * scale,
            geom.r_j * scale, kernels.INTERSECT_TOL)
        flat = candidates.reshape(-1)[valid.reshape(-1)]
        # The candidates plus points scattered over the discs' box.
        scatter = data.draw(st.lists(st.complex_numbers(
            max_magnitude=2000.0, allow_nan=False, allow_infinity=False),
            max_size=40))
        points = np.concatenate((flat, np.array(scatter, dtype=complex)))
        reach = radii * scale + 1e-9 * max(1.0, float(radii.max() * scale))
        full = kernels._inside_all(points, geom.z, reach)
        screen = data.draw(screens(len(radii)))
        screened = kernels._inside_all(points, geom.z, reach, screen)
        assert np.array_equal(screened, full)


def circle_through(p, q, toward, radius=1.0):
    """The circle of ``radius`` through ``p`` and ``q`` whose center
    lies on ``toward``'s side of the chord ``pq``."""
    mid = 0.5 * (p + q)
    normal = 1j * (q - p) / abs(q - p)
    if ((toward - mid) * normal.conjugate()).real < 0.0:
        normal = -normal
    center = mid + normal * math.sqrt(radius ** 2 - abs(q - p) ** 2 / 4.0)
    return Circle(Point(center.real, center.imag), radius)


class TestSupportKernels:
    def test_contains_all_matches_circle_contains(self):
        rng = np.random.default_rng(11)
        discs = random_disc_set(rng, 5)
        coords = rng.uniform(-150, 150, (64, 2))
        centers, radii = kernels.discs_as_arrays(discs)
        inside = kernels.contains_all(coords, centers, radii, slack=0.0)
        for p_idx, point in enumerate(kernels.array_as_points(coords)):
            assert inside[p_idx] == all(disc.contains(point, tol=0.0)
                                        for disc in discs)

    def test_dedupe_keep_first_chain_semantics(self):
        # Unit discs put three Δ candidates a, b, c (pairs (0,1), (0,2),
        # (1,2), in that emission order) within the 1e-8 merge distance
        # as a chain: a~b and b~c but a!~c.  Keep-first drops only b.
        a, b, c = 0j, 0.9e-8 + 0j, 1.8e-8 + 0.9e-8j
        discs = [circle_through(a, b, toward=c),
                 circle_through(a, c, toward=b),
                 circle_through(b, c, toward=a)]
        region = DiscIntersection(discs)
        want = reference_vertices(discs)
        assert len(region.vertices) == len(want) == 2
        assert region.vertices[0].is_close(Point(0.0, 0.0), 1e-12)
        assert region.vertices[1].is_close(Point(1.8e-8, 0.9e-8), 1e-12)
        for got, ref in zip(region.vertices, want):
            assert got.is_close(ref, TOL)

    def test_round_trip_point_packing(self):
        discs = [Circle(Point(1.5, -2.25), 1.0), Circle(Point(0.0, 3.0), 2.0)]
        centers, radii = kernels.discs_as_arrays(discs)
        assert kernels.array_as_points(centers) == [d.center for d in discs]
        assert radii.tolist() == [1.0, 2.0]


class TestMonteCarloVectorized:
    def test_area_estimate_matches_exact(self):
        rng = np.random.default_rng(21)
        discs = random_disc_set(rng, 4)
        region = DiscIntersection(discs)
        if region.is_empty:
            pytest.skip("degenerate draw")
        exact = region.area
        estimate = region.monte_carlo_area(np.random.default_rng(3),
                                           samples=40000)
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_centroid_estimate_matches_exact(self):
        discs = [Circle(Point(0.0, 0.0), 80.0),
                 Circle(Point(100.0, 0.0), 80.0),
                 Circle(Point(50.0, 90.0), 80.0)]
        region = DiscIntersection(discs)
        exact = region.centroid()
        estimate = region.monte_carlo_centroid(np.random.default_rng(3),
                                               samples=40000)
        assert estimate is not None
        assert estimate.is_close(exact, 2.0)

    def test_empty_region_monte_carlo(self):
        discs = [Circle(Point(0.0, 0.0), 5.0),
                 Circle(Point(100.0, 0.0), 5.0)]
        region = DiscIntersection(discs)
        assert region.monte_carlo_area(np.random.default_rng(0)) == 0.0
        assert region.monte_carlo_centroid(np.random.default_rng(0)) is None
