"""Sparse revised-simplex tests, cross-checked against scipy's HiGHS.

The revised engine (:mod:`repro.lp.revised`) is the one in-tree LP
solver.  It must agree with ``LpProblem.solve(solver="scipy")`` on
every instance both can express — that equivalence is the contract
that lets AP-Rad swap solvers freely.
Property tests generate random bounded LPs and compare; targeted tests
cover the degenerate / warm-start / softened-infeasible corners that
random sampling rarely hits.
"""

import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.geometry.point import Point
from repro.localization.radius_lp import RadiusEstimator
from repro.lp import LpProblem, LpState, revised, solve_revised
from repro.lp.revised import (
    _AT_LOWER, _AT_UPPER, FEAS_TOL, PIVOT_TOL, LpRows, _BasisFactor,
    _build_csc, _lu_pivots, _ratio_test, _SingularBasis, slack_code)
from repro.net80211.mac import MacAddress
from repro.sim.scenarios import build_disc_model_experiment

SRC = Path(__file__).resolve().parent.parent / "src"

# Quantized draws: denormal-ish coefficients like 1e-7 make an instance
# so ill-conditioned that HiGHS's own feasibility tolerance (~1e-9 on a
# variable) amplifies into objective differences far beyond any sane
# comparison tolerance — both solvers are "right" within their
# tolerances yet disagree.  Well-scaled coefficients keep the
# cross-check meaningful.
COEF = st.floats(min_value=-5.0, max_value=5.0,
                 allow_nan=False, allow_infinity=False,
                 ).map(lambda v: round(v * 64.0) / 64.0)
RHS = st.floats(min_value=0.0, max_value=10.0,
                allow_nan=False, allow_infinity=False,
                ).map(lambda v: round(v * 64.0) / 64.0)


def build_problem(cost, rows, bounds, maximize=False):
    """An :class:`LpProblem` from a dense cost and sparse rows."""
    problem = LpProblem(maximize=maximize)
    for low, up in bounds:
        problem.add_variable(low=low, up=up)
    problem.set_objective(dict(enumerate(cost)))
    for coefficients, sense, rhs in rows:
        problem.add_constraint(coefficients, sense, rhs)
    return problem


def assert_rows_hold(rows, x):
    for coefficients, sense, rhs in rows:
        lhs = sum(value * x[index] for index, value in coefficients.items())
        if sense == "<=":
            assert lhs <= rhs + 1e-6
        elif sense == ">=":
            assert lhs >= rhs - 1e-6
        else:
            assert lhs == pytest.approx(rhs, abs=1e-6)


FREE = (0.0, None)
BEALE_COST = [-0.75, 150.0, -0.02, 6.0]
#: The classic cycling example: it cycles under naive Dantzig pricing.
BEALE_ROWS = [
    ({0: 0.25, 1: -60.0, 2: -0.04, 3: 9.0}, "<=", 0.0),
    ({0: 0.5, 1: -90.0, 2: -0.02, 3: 3.0}, "<=", 0.0),
    ({2: 1.0}, "<=", 1.0),
]

#: cost, rows, bounds, maximize, status, objective, {index: value}
LP_CASES = [
    pytest.param(
        [1.0, 1.0],
        [({0: 1.0, 1: 2.0}, "<=", 4.0), ({0: 3.0, 1: 1.0}, "<=", 6.0)],
        [FREE, FREE], True, "optimal", 2.8, {0: 1.6, 1: 1.2},
        id="textbook-max"),
    pytest.param(
        [1.0, 1.0], [({0: 1.0, 1: 1.0}, ">=", 2.0)],
        [FREE, FREE], False, "optimal", 2.0, {}, id="textbook-min"),
    pytest.param(
        [1.0, 2.0], [({0: 1.0, 1: 1.0}, "==", 3.0)],
        [FREE, FREE], False, "optimal", 3.0, {0: 3.0}, id="equality-row"),
    pytest.param(
        [1.0], [], [(0.0, 5.0)], True, "optimal", 5.0, {0: 5.0},
        id="upper-bound"),
    pytest.param(
        [1.0], [], [(2.5, None)], False, "optimal", 2.5, {0: 2.5},
        id="shifted-lower-bound"),
    pytest.param(
        [1.0], [], [(-3.0, 4.0)], False, "optimal", -3.0, {0: -3.0},
        id="negative-lower-bound"),
    pytest.param(
        [2.0, 3.0], [], [FREE, FREE], False, "optimal", 0.0, {},
        id="no-rows-minimum-at-lower"),
    pytest.param(
        [1.0], [({0: 1.0}, "<=", 1.0), ({0: 1.0}, ">=", 3.0)],
        [FREE], False, "infeasible", None, {}, id="infeasible"),
    pytest.param(
        [1.0], [], [FREE], True, "unbounded", None, {}, id="unbounded"),
    pytest.param(
        BEALE_COST, BEALE_ROWS, [FREE] * 4, False, "optimal", -0.05, {},
        id="beale-cycling"),
    pytest.param(
        [1.0, 1.0],
        [({0: 1.0, 1: 1.0}, "==", 2.0), ({0: 2.0, 1: 2.0}, "==", 4.0)],
        [FREE, FREE], False, "optimal", 2.0, {}, id="redundant-equalities"),
    # Three collinear APs at 0, 100, 260: the pair (0, 100) is
    # co-observed (r0 + r1 >= 100); the others are not.  The optimum
    # is r0 = 100 with r1 + r2 = 160 -> 260.
    pytest.param(
        [1.0, 1.0, 1.0],
        [({0: 1.0, 1: 1.0}, ">=", 100.0), ({1: 1.0, 2: 1.0}, "<=", 160.0),
         ({0: 1.0, 2: 1.0}, "<=", 260.0)],
        [(0.0, 100.0)] * 3, True, "optimal", 260.0, {0: 100.0},
        id="ap-rad-shape"),
]


class TestLpProblemRevised:
    """Textbook and degenerate LPs through ``LpProblem.solve``."""

    @pytest.mark.parametrize(
        "cost, rows, bounds, maximize, status, objective, x", LP_CASES)
    def test_solve(self, cost, rows, bounds, maximize, status, objective,
                   x):
        result = build_problem(cost, rows, bounds, maximize).solve(
            "revised")
        assert result.status == status
        if status != "optimal":
            assert result.x is None
            return
        assert result.objective == pytest.approx(objective)
        for index, value in x.items():
            assert result.x[index] == pytest.approx(value)
        assert_rows_hold(rows, result.x)

    def test_revised_is_the_default_solver(self):
        problem = build_problem(BEALE_COST, BEALE_ROWS, [FREE] * 4)
        default = problem.solve()
        revised = problem.solve("revised")
        assert default.objective == revised.objective
        assert default.iterations == revised.iterations

    def test_simplex_solver_is_unknown(self):
        problem = build_problem([1.0], [], [(0.0, 5.0)])
        with pytest.raises(ValueError, match="unknown solver 'simplex'"):
            problem.solve(solver="simplex")


class TestBasicLps:
    def test_textbook_maximize(self):
        result = solve_revised(
            [1.0, 1.0],
            [({0: 1.0, 1: 2.0}, "<=", 4.0), ({0: 3.0, 1: 1.0}, "<=", 6.0)],
            lower=[0.0, 0.0], upper=[None, None], maximize=True)
        assert result.is_optimal
        assert result.objective == pytest.approx(2.8)
        assert result.x[0] == pytest.approx(1.6)
        assert result.x[1] == pytest.approx(1.2)

    def test_minimize_with_ge_row(self):
        result = solve_revised(
            [1.0, 1.0], [({0: 1.0, 1: 1.0}, ">=", 2.0)],
            lower=[0.0, 0.0], upper=[None, None])
        assert result.is_optimal
        assert result.objective == pytest.approx(2.0)

    def test_equality_constraint(self):
        result = solve_revised(
            [1.0, 2.0], [({0: 1.0, 1: 1.0}, "==", 3.0)],
            lower=[0.0, 0.0], upper=[None, None])
        assert result.is_optimal
        assert result.objective == pytest.approx(3.0)
        assert result.x[0] == pytest.approx(3.0)

    def test_bounds_only(self):
        result = solve_revised([1.0], [], lower=[2.5], upper=[7.0])
        assert result.is_optimal
        assert result.x[0] == pytest.approx(2.5)
        flipped = solve_revised([1.0], [], lower=[2.5], upper=[7.0],
                                maximize=True)
        assert flipped.x[0] == pytest.approx(7.0)

    def test_negative_lower_bound(self):
        result = solve_revised([1.0], [({0: 1.0}, "<=", 4.0)],
                               lower=[-3.0], upper=[None])
        assert result.is_optimal
        assert result.x[0] == pytest.approx(-3.0)

    def test_state_exported_on_optimum(self):
        result = solve_revised(
            [1.0, 1.0], [({0: 1.0, 1: 1.0}, "<=", 4.0)],
            lower=[0.0, 0.0], upper=[None, None], maximize=True)
        assert result.is_optimal
        assert isinstance(result.state, LpState)
        assert len(result.state.row_basic) == 1
        assert not result.warm_started


class TestDegenerateOutcomes:
    def test_infeasible(self):
        result = solve_revised(
            [1.0], [({0: 1.0}, "<=", 1.0), ({0: 1.0}, ">=", 3.0)],
            lower=[0.0], upper=[None])
        assert result.status == "infeasible"
        assert result.x is None

    def test_unbounded(self):
        result = solve_revised([1.0], [], lower=[0.0], upper=[None],
                               maximize=True)
        assert result.status == "unbounded"

    def test_beale_degenerate_terminates(self):
        # Termination exercises the Bland fallback path.
        result = solve_revised(BEALE_COST, BEALE_ROWS,
                               lower=[0.0] * 4, upper=[None] * 4)
        assert result.is_optimal
        assert result.objective == pytest.approx(-0.05)

    def test_beale_under_forced_bland(self):
        # bland_after=0 makes every pivot use Bland's rule: slower but
        # provably finite, and it must land on the same optimum.
        result = solve_revised(BEALE_COST, BEALE_ROWS,
                               lower=[0.0] * 4, upper=[None] * 4,
                               bland_after=0)
        assert result.is_optimal
        assert result.objective == pytest.approx(-0.05)

    def test_redundant_equalities(self):
        result = solve_revised(
            [1.0, 1.0],
            [({0: 1.0, 1: 1.0}, "==", 2.0), ({0: 2.0, 1: 2.0}, "==", 4.0)],
            lower=[0.0, 0.0], upper=[None, None])
        assert result.is_optimal
        assert result.objective == pytest.approx(2.0)


class TestScipyCrossCheck:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_mixed_rows_match_scipy(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        m = data.draw(st.integers(min_value=0, max_value=6))
        cost = data.draw(st.lists(COEF, min_size=n, max_size=n))
        constraints = []
        for _ in range(m):
            row = data.draw(st.lists(COEF, min_size=n, max_size=n))
            sense = data.draw(st.sampled_from(["<=", ">="]))
            rhs = data.draw(RHS)
            if sense == ">=":
                # Keep the origin feasible so most draws are solvable.
                rhs = -rhs
            coefficients = {j: v for j, v in enumerate(row) if v != 0.0}
            constraints.append((coefficients, sense, rhs))
        maximize = data.draw(st.booleans())

        problem = build_problem(cost, constraints, [(0.0, 10.0)] * n,
                                maximize)
        revised = problem.solve(solver="revised")
        reference = problem.solve(solver="scipy")
        assert revised.status == reference.status
        if reference.is_optimal:
            assert revised.objective == pytest.approx(reference.objective,
                                                      rel=1e-6, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_sparse_rows_match_scipy(self, data):
        # The AP-Rad shape: many variables, 2-nonzero rows.
        n = data.draw(st.integers(min_value=3, max_value=8))
        m = data.draw(st.integers(min_value=1, max_value=10))
        constraints = []
        for _ in range(m):
            i = data.draw(st.integers(min_value=0, max_value=n - 1))
            j = data.draw(st.integers(min_value=0, max_value=n - 1))
            if i == j:
                j = (i + 1) % n
            sense = data.draw(st.sampled_from(["<=", ">="]))
            rhs = data.draw(st.floats(min_value=1.0, max_value=15.0,
                                      allow_nan=False,
                                      ).map(lambda v: round(v * 64.0) / 64.0))
            constraints.append(({i: 1.0, j: 1.0}, sense, rhs))

        problem = build_problem([1.0] * n, constraints, [(0.0, 10.0)] * n,
                                maximize=True)
        revised = problem.solve(solver="revised")
        reference = problem.solve(solver="scipy")
        assert revised.status == reference.status
        if reference.is_optimal:
            assert revised.objective == pytest.approx(reference.objective,
                                                      rel=1e-6, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_lps_match_scipy(self, data):
        linprog = pytest.importorskip("scipy.optimize").linprog
        n = data.draw(st.integers(min_value=1, max_value=5))
        m = data.draw(st.integers(min_value=0, max_value=6))
        cost = data.draw(st.lists(COEF, min_size=n, max_size=n))
        rows = [data.draw(st.lists(COEF, min_size=n, max_size=n))
                for _ in range(m)]
        b_ub = data.draw(st.lists(RHS, min_size=m, max_size=m))
        constraints = [
            ({j: v for j, v in enumerate(row) if v != 0.0}, "<=", rhs)
            for row, rhs in zip(rows, b_ub)
        ]

        ours = solve_revised(cost, constraints, lower=[0.0] * n,
                             upper=[10.0] * n)
        reference = linprog(cost, A_ub=np.array(rows) if m else None,
                            b_ub=np.array(b_ub) if m else None,
                            bounds=[(0.0, 10.0)] * n, method="highs")
        if reference.status == 0:
            assert ours.is_optimal
            assert ours.objective == pytest.approx(reference.fun,
                                                   rel=1e-6, abs=1e-6)
        elif reference.status == 2:
            assert ours.status == "infeasible"


class TestWarmStart:
    def test_warm_resolve_matches_cold(self):
        constraints = [
            ({0: 1.0, 1: 1.0}, ">=", 100.0),
            ({1: 1.0, 2: 1.0}, "<=", 160.0),
        ]
        cold = solve_revised([1.0, 1.0, 1.0], constraints,
                             lower=[0.0] * 3, upper=[100.0] * 3,
                             maximize=True)
        assert cold.is_optimal
        warm = solve_revised([1.0, 1.0, 1.0], constraints,
                             lower=[0.0] * 3, upper=[100.0] * 3,
                             maximize=True, warm_start=cold.state)
        assert warm.is_optimal
        assert warm.warm_started
        assert warm.objective == pytest.approx(cold.objective)
        # Restarting at the optimum needs no pivots at all.
        assert warm.iterations == 0

    def test_warm_start_after_appending_rows(self):
        base = [
            ({0: 1.0, 1: 1.0}, ">=", 100.0),
            ({1: 1.0, 2: 1.0}, "<=", 160.0),
        ]
        first = solve_revised([1.0, 1.0, 1.0], base,
                              lower=[0.0] * 3, upper=[100.0] * 3,
                              maximize=True)
        grown = base + [({0: 1.0, 2: 1.0}, "<=", 120.0)]
        cold = solve_revised([1.0, 1.0, 1.0], grown,
                             lower=[0.0] * 3, upper=[100.0] * 3,
                             maximize=True)
        warm = solve_revised([1.0, 1.0, 1.0], grown,
                             lower=[0.0] * 3, upper=[100.0] * 3,
                             maximize=True, warm_start=first.state)
        assert warm.is_optimal and cold.is_optimal
        assert warm.warm_started
        assert warm.objective == pytest.approx(cold.objective)
        np.testing.assert_allclose(np.sort(warm.x), np.sort(cold.x),
                                   atol=1e-6)

    def test_stale_state_degrades_gracefully(self):
        # A state referencing variables the problem no longer has must
        # fall back to a cold-ish start, not crash or return garbage.
        stale = LpState(row_basic=(99,), at_upper=(42,))
        result = solve_revised(
            [1.0, 1.0], [({0: 1.0, 1: 1.0}, "<=", 4.0)],
            lower=[0.0, 0.0], upper=[None, None], maximize=True,
            warm_start=stale)
        assert result.is_optimal
        assert result.objective == pytest.approx(4.0)


class TestSoftenedInfeasible:
    def test_slack_penalty_agreement(self):
        # The radius LP's softened shape: a separated row contradicted
        # by a co-observation gets a penalized slack w so the system
        # stays feasible.  Both solvers must agree on the compromise.
        problem = LpProblem(maximize=True)
        r_a = problem.add_variable("r_a", low=1.0, up=100.0)
        r_b = problem.add_variable("r_b", low=1.0, up=100.0)
        w = problem.add_variable("w", low=0.0)
        problem.set_objective({r_a: 1.0, r_b: 1.0, w: -10.0})
        problem.add_constraint({r_a: 1.0, r_b: 1.0}, ">=", 120.0)
        problem.add_constraint({r_a: 1.0, r_b: 1.0, w: -1.0}, "<=", 50.0)
        reference = problem.solve(solver="scipy")
        revised = problem.solve_revised()
        assert reference.is_optimal and revised.is_optimal
        assert revised.objective == pytest.approx(reference.objective,
                                                  abs=1e-6)
        # The slack absorbs exactly the contradiction: w = 120 - 50.
        assert revised.x[w] == pytest.approx(70.0, abs=1e-6)


class TestLpProblemIntegration:
    def test_solver_dispatch(self):
        problem = LpProblem(maximize=True)
        x = problem.add_variable("x", low=0.0, up=5.0)
        problem.set_objective({x: 1.0})
        problem.add_constraint({x: 1.0}, "<=", 3.0)
        via_scipy = problem.solve(solver="scipy")
        via_revised = problem.solve(solver="revised")
        assert via_scipy.objective == pytest.approx(3.0)
        assert via_revised.objective == pytest.approx(3.0)

    def test_iteration_counts_reported(self):
        problem = LpProblem(maximize=True)
        x = problem.add_variable("x", low=0.0, up=5.0)
        y = problem.add_variable("y", low=0.0, up=5.0)
        problem.set_objective({x: 2.0, y: 1.0})
        problem.add_constraint({x: 1.0, y: 1.0}, "<=", 6.0)
        revised = problem.solve_revised()
        assert revised.iterations > 0
        assert problem.solve().iterations == revised.iterations


class TestRefactorizationParity:
    """``refactorizations`` reads uniformly across backends."""

    def _problem(self):
        problem = LpProblem(maximize=True)
        x = problem.add_variable("x", low=0.0, up=5.0)
        y = problem.add_variable("y", low=0.0, up=5.0)
        problem.set_objective({x: 2.0, y: 1.0})
        problem.add_constraint({x: 1.0, y: 1.0}, "<=", 6.0)
        return problem

    def test_solve_dispatch_agrees_with_solve_revised(self):
        problem = self._problem()
        dispatched = problem.solve(solver="revised")
        direct = problem.solve_revised()
        assert dispatched.iterations == direct.iterations
        assert dispatched.refactorizations == direct.refactorizations
        assert dispatched.objective == pytest.approx(direct.objective)

    def test_scipy_backend_reports_zero_refactorizations(self):
        pytest.importorskip("scipy.optimize")
        result = self._problem().solve(solver="scipy")
        assert result.is_optimal
        assert result.refactorizations == 0

    def test_pivot_metrics_land_in_routed_registry(self):
        from repro import obs

        problem = self._problem()
        # Infeasible at the all-slack start, so phase 1 pivots.
        problem.add_constraint({0: 1.0, 1: 1.0}, ">=", 3.0)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            result = problem.solve(solver="revised")
        counters = registry.snapshot()["counters"]
        assert counters["repro.lp.revised.pivots"] == result.iterations
        assert result.phase1_iterations > 0
        assert (counters["repro.lp.revised.phase1_pivots"]
                == result.phase1_iterations)
        assert (counters["repro.lp.revised.refactorizations"]
                == result.refactorizations)


def _random_sparse_matrix(rng, m, n):
    """``[A | I]`` with 2-3 nonzeros per structural column."""
    rows = []
    for j in range(n):
        picked = rng.choice(m, size=int(rng.integers(2, 4)), replace=False)
        rows.append({int(i): float(rng.uniform(0.5, 3.0)
                                   * rng.choice([-1.0, 1.0]))
                     for i in picked})
    constraints = [({}, "<=", 0.0) for _ in range(m)]
    for j, column in enumerate(rows):
        for i, value in column.items():
            constraints[i][0][j] = value
    matrix, _, _, _ = _build_csc(LpRows.of(constraints), n)
    return matrix


def _dense_columns(matrix, selected):
    data, indices, indptr = matrix.columns(selected)
    dense = np.zeros((matrix.m, len(selected)))
    for position in range(len(selected)):
        span = slice(indptr[position], indptr[position + 1])
        dense[indices[span], position] = data[span]
    return dense


class TestCsc:
    def test_products_match_dense(self):
        rng = np.random.default_rng(3)
        matrix = _random_sparse_matrix(rng, 12, 20)
        dense = _dense_columns(matrix, np.arange(matrix.n))
        x = rng.normal(size=matrix.n)
        y = rng.normal(size=matrix.m)
        np.testing.assert_allclose(matrix.dot(x), dense @ x, atol=1e-12)
        np.testing.assert_allclose(matrix.transpose_dot(y), dense.T @ y,
                                   atol=1e-12)


def _radius_matrix(rng, aps=8, rows=30):
    """An AP-Rad-shaped ``[A | I]``: radius columns ``0..aps-1``; each
    row pairs two radii, and a separated row adds its own penalty slack
    (coefficient -1) after the radii."""
    constraints, separated = [], []
    for _ in range(rows):
        i, j = (int(v) for v in rng.choice(aps, size=2, replace=False))
        if rng.random() < 0.6:
            separated.append(len(constraints))
            constraints.append(
                ({i: 1.0, j: 1.0, aps + len(separated) - 1: -1.0}, "<=",
                 0.0))
        else:
            constraints.append(({i: 1.0, j: 1.0}, ">=", 0.0))
    n = aps + len(separated)
    matrix, _, _, _ = _build_csc(LpRows.of(constraints), n)
    # The feasible start: penalty slacks basic in separated rows, row
    # slacks elsewhere -- every basic column a singleton (k = 0).
    basis = np.arange(n, n + len(constraints), dtype=np.int64)
    basis[separated] = np.arange(aps, n)
    return matrix, basis


def _dense_matrix(rng, m=12, n=20):
    """``[A | I]`` with a fully dense ``A`` and a basis of ``m``
    structural columns, so every basic column is in the core (k = m)."""
    constraints = [({j: float(rng.uniform(-3.0, 3.0)) for j in range(n)},
                    "<=", 0.0) for _ in range(m)]
    matrix, _, _, _ = _build_csc(LpRows.of(constraints), n)
    return matrix, rng.choice(n, size=m, replace=False).astype(np.int64)


#: Pivot kinds by the leaving and entering column: a singleton
#: replacing one on the same row, a singleton moving a row into the
#: core and another out, a column bordering the core, a singleton
#: shrinking it, a column replacing a core column.
PIVOT_KINDS = ("swap", "move", "border", "shrink", "replace")


def _pivot_kind(factor, matrix, position, entering):
    entering_row = matrix.single_row[entering]
    leaving_core = factor._pos_slot[position] >= 0
    if entering_row < 0:
        return "replace" if leaving_core else "border"
    if leaving_core:
        return "shrink"
    return "swap" if entering_row == factor._pos_row[position] else "move"


class TestBasisFactor:
    """The singleton/core factor against dense solves after each kind
    of pivot, on radius-shaped (k << m) and dense (k = m) bases."""

    def _check(self, factor, matrix, basis, rng):
        dense = _dense_columns(matrix, basis)
        rhs = rng.normal(size=matrix.m)
        np.testing.assert_allclose(factor.ftran(rhs),
                                   np.linalg.solve(dense, rhs),
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(factor.btran(rhs),
                                   np.linalg.solve(dense.T, rhs),
                                   rtol=1e-9, atol=1e-9)
        columns = rng.choice(matrix.n, size=5, replace=False)
        solved = np.linalg.solve(dense, _dense_columns(matrix, columns))
        for position, column in enumerate(columns.tolist()):
            np.testing.assert_allclose(factor.ftran_column(column),
                                       solved[:, position],
                                       rtol=1e-9, atol=1e-9)

    def _pivot(self, factor, matrix, basis, kind, rng):
        """Make one pivot of ``kind`` with a well-sized pivot element."""
        outside = np.setdiff1d(np.arange(matrix.n), basis)
        for entering in rng.permutation(outside).tolist():
            w = factor.ftran_column(entering)
            for position in np.flatnonzero(np.abs(w) > 0.2).tolist():
                if _pivot_kind(factor, matrix, position, entering) == kind:
                    assert factor.update(position, entering)
                    basis[position] = entering
                    return
        pytest.fail(f"no {kind} pivot available")

    @pytest.mark.parametrize("seed", range(5))
    def test_radius_shaped_basis_after_every_pivot_kind(self, seed):
        rng = np.random.default_rng(seed)
        matrix, basis = _radius_matrix(rng)
        factor = _BasisFactor(matrix, basis)
        assert factor._core_pos.size == 0
        kinds = ("border", "border", "swap", "move", "border", "replace",
                 "move", "shrink", "swap", "replace", "shrink", "move")
        for kind in kinds:
            self._pivot(factor, matrix, basis, kind, rng)
            self._check(factor, matrix, basis, rng)
        assert factor.updates == len(kinds)
        assert 0 < factor._core_pos.size < matrix.m

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_basis_after_every_pivot_kind(self, seed):
        rng = np.random.default_rng(seed)
        matrix, basis = _dense_matrix(rng)
        factor = _BasisFactor(matrix, basis)
        assert factor._core_pos.size == matrix.m
        self._check(factor, matrix, basis, rng)
        for kind in ("replace", "shrink", "border", "shrink", "shrink",
                     "move", "replace", "border", "move"):
            self._pivot(factor, matrix, basis, kind, rng)
            self._check(factor, matrix, basis, rng)
        # A refactorization of the updated basis agrees with the updates.
        self._check(_BasisFactor(matrix, basis), matrix, basis, rng)

    def test_update_refuses_a_zero_pivot(self):
        rng = np.random.default_rng(0)
        matrix, basis = _radius_matrix(rng)
        factor = _BasisFactor(matrix, basis)
        column = 0  # radius 0 is absent from some row
        w = factor.ftran_column(column)
        position = int(np.flatnonzero(w == 0.0)[0])
        assert not factor.update(position, column)

    def test_singular_basis_is_rejected(self):
        rng = np.random.default_rng(0)
        matrix = _random_sparse_matrix(rng, 6, 4)
        basis = np.array([0, 0, 6, 7, 8, 9], dtype=np.int64)
        with pytest.raises(_SingularBasis):
            _BasisFactor(matrix, basis)

    def test_two_singletons_on_one_row_are_singular(self):
        rng = np.random.default_rng(0)
        matrix, basis = _radius_matrix(rng)
        n = matrix.n - matrix.m
        separated = int(np.flatnonzero(basis < n)[0])
        # Row ``separated`` keeps its penalty slack and gains its row
        # slack, which another row gives up.
        basis[(separated + 1) % matrix.m] = n + separated
        with pytest.raises(_SingularBasis):
            _BasisFactor(matrix, basis)


def test_lu_pivots_match_scipy():
    lu = pytest.importorskip("scipy.linalg").lu
    rng = np.random.default_rng(5)
    for size in (1, 2, 7, 30):
        core = rng.normal(size=(size, size))
        core[rng.random((size, size)) < 0.3] = 0.0
        np.testing.assert_allclose(_lu_pivots(core),
                                   np.abs(np.diagonal(lu(core)[2])),
                                   rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(
        _lu_pivots(np.array([[1.0, 2.0], [2.0, 4.0]])), [2.0, 0.0])


def test_revised_solve_leaves_scipy_sparse_unloaded():
    code = (
        "import sys\n"
        "from repro.lp import LpProblem\n"
        "problem = LpProblem(maximize=True)\n"
        "x = problem.add_variable(low=0.0, up=5.0)\n"
        "y = problem.add_variable(low=0.0, up=5.0)\n"
        "problem.set_objective({x: 2.0, y: 1.0})\n"
        "problem.add_constraint({x: 1.0, y: 1.0}, '<=', 6.0)\n"
        "assert problem.solve(solver='revised').objective == 11.0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "scipy.sparse" not in result.stdout, result.stdout


#: Warm codes naming two structural columns for a basis they cannot
#: span.  x0 and x1 live only in row 0, so row 1 of B is empty.
STRUCTURALLY_SINGULAR = (
    [({0: 1.0, 1: 2.0}, "<=", 4.0), ({2: 1.0}, "<=", 3.0)],
    LpState(row_basic=(0, 1)))
#: x0 and x1 have proportional columns: B has no empty row or column,
#: yet SuperLU finds it exactly singular.
EXACTLY_SINGULAR = (
    [({0: 1.0, 1: 2.0, 2: 1.0}, "<=", 4.0),
     ({0: 2.0, 1: 4.0}, "<=", 9.0)],
    LpState(row_basic=(0, 1)))
#: Proportional up to 1e-12: SuperLU factors B, and the ``|diag(U)|``
#: threshold must reject it.
NEARLY_SINGULAR = (
    [({0: 1.0, 1: 2.0, 2: 1.0}, "<=", 4.0),
     ({0: 2.0, 1: 4.0 + 1e-12}, "<=", 9.0)],
    LpState(row_basic=(0, 1)))


class TestSingularWarmStart:
    @pytest.mark.parametrize("rows, state", [
        pytest.param(*STRUCTURALLY_SINGULAR, id="structural"),
        pytest.param(*EXACTLY_SINGULAR, id="exact"),
        pytest.param(*NEARLY_SINGULAR, id="near"),
    ])
    def test_singular_warm_basis_falls_back_to_cold(self, rows, state):
        problem = build_problem([1.0, 1.0, 1.0], rows,
                                [(0.0, 10.0)] * 3, maximize=True)
        revised = problem.solve_revised(warm_start=state)
        reference = problem.solve(solver="scipy")
        assert revised.is_optimal and reference.is_optimal
        assert revised.warm_started is False
        assert revised.objective == pytest.approx(reference.objective,
                                                  abs=1e-9)
        assert_rows_hold(rows, revised.x)


def scalar_ratio_test(delta, x_b, lo_b, hi_b, basis, phase, bland):
    """The per-row ratio-test loop ``_ratio_test`` replaced, kept as
    its reference.  Also returns every blocking row's step, so callers
    can check that an input is tie-free."""
    best_t = np.inf
    best_row = -1
    best_bound = _AT_LOWER
    times = []
    for i in np.nonzero(np.abs(delta) > PIVOT_TOL)[0]:
        d = delta[i]
        value = x_b[i]
        low, high = lo_b[i], hi_b[i]
        if phase == 1 and value < low - FEAS_TOL:
            if d > 0.0:
                t = (low - value) / d
                bound = _AT_LOWER
            else:
                continue
        elif phase == 1 and value > high + FEAS_TOL:
            if d < 0.0:
                t = (value - high) / (-d)
                bound = _AT_UPPER
            else:
                continue
        elif d < 0.0:
            if not np.isfinite(low):
                continue
            t = (value - low) / (-d)
            bound = _AT_LOWER
        else:
            if not np.isfinite(high):
                continue
            t = (high - value) / d
            bound = _AT_UPPER
        t = max(t, 0.0)
        times.append(t)
        if t < best_t - FEAS_TOL:
            best_t, best_row, best_bound = t, int(i), bound
        elif t < best_t + FEAS_TOL and best_row >= 0:
            if bland:
                if basis[i] < basis[best_row]:
                    best_t = min(best_t, t)
                    best_row, best_bound = int(i), bound
            elif abs(d) > abs(delta[best_row]):
                best_t = min(best_t, t)
                best_row, best_bound = int(i), bound
    return best_row, best_bound, best_t, times


def _ratio_inputs(rng, m, phase):
    """Random basic rows: some bounds infinite, phase-1 rows may sit
    outside their bounds, feasible rows strictly inside them."""
    lo_b = rng.uniform(-5.0, 0.0, size=m)
    hi_b = lo_b + rng.uniform(0.5, 5.0, size=m)
    lo_b[rng.random(m) < 0.2] = -np.inf
    hi_b[rng.random(m) < 0.3] = np.inf
    inner_lo = np.where(np.isfinite(lo_b), lo_b,
                        np.minimum(hi_b, 5.0) - 10.0)
    inner_hi = np.where(np.isfinite(hi_b), hi_b, inner_lo + 10.0)
    x_b = rng.uniform(inner_lo + 0.01, inner_hi - 0.01)
    if phase == 1:
        out = rng.random(m)
        below = (out < 0.2) & np.isfinite(lo_b)
        above = (out > 0.8) & np.isfinite(hi_b)
        x_b[below] = lo_b[below] - rng.uniform(0.1, 3.0, size=below.sum())
        x_b[above] = hi_b[above] + rng.uniform(0.1, 3.0, size=above.sum())
    delta = rng.normal(size=m)
    delta[rng.random(m) < 0.15] = 0.0
    basis = rng.permutation(4 * m)[:m]
    return delta, x_b, lo_b, hi_b, basis


class TestRatioTest:
    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("bland", [False, True])
    def test_matches_scalar_loop_on_tie_free_inputs(self, phase, bland):
        rng = np.random.default_rng(1000 * phase + bland)
        checked = 0
        for _ in range(300):
            inputs = _ratio_inputs(rng, int(rng.integers(1, 40)), phase)
            row, bound, t, times = scalar_ratio_test(*inputs, phase,
                                                     bland)
            gaps = np.diff(np.sort(times))
            if gaps.size and gaps.min() <= 2.0 * FEAS_TOL:
                continue  # a near tie: the two rules may differ
            checked += 1
            assert _ratio_test(*inputs, phase, bland) == (row, bound, t)
        assert checked > 250

    def test_no_blocking_row(self):
        row, bound, t = _ratio_test(
            np.array([1.0, -1.0]), np.array([0.0, 0.0]),
            np.array([-np.inf, -np.inf]), np.array([np.inf, np.inf]),
            np.array([0, 1]), phase=2, bland=False)
        assert (row, t) == (-1, np.inf)

    @pytest.mark.parametrize("bland, expected", [(False, 1), (True, 0)])
    def test_degenerate_tie(self, bland, expected):
        # Both rows sit on the bound they move towards (t = 0): Dantzig
        # takes the larger |delta|, Bland the smaller basis index.
        row, bound, t = _ratio_test(
            np.array([-1.0, 3.0]), np.array([0.0, 2.0]),
            np.array([0.0, 0.0]), np.array([5.0, 2.0]),
            np.array([4, 7]), phase=2, bland=bland)
        assert (row, t) == (expected, 0.0)
        assert bound == (_AT_LOWER, _AT_UPPER)[expected]


class TestApRadShapedLp:
    def test_grid_lp_matches_highs(self):
        # The perfbench aprad-refit shape: an 8 x 8 AP grid at 100 m
        # (jittered, so the perturbed optimum is unique), 140 m true
        # range, r_max = 200.
        rng = np.random.default_rng(8)
        locations = {
            MacAddress(r * 8 + c + 1):
                Point(c * 100.0 + rng.uniform(-7.0, 7.0),
                      r * 100.0 + rng.uniform(-7.0, 7.0))
            for r in range(8) for c in range(8)}
        coords = np.array([[p.x, p.y] for p in locations.values()])
        macs = list(locations)
        corpus = []
        while len(corpus) < 300:
            probe = rng.uniform(-40.0, 740.0, size=2)
            inside = np.hypot(*(coords - probe).T) <= 140.0
            if inside.any():
                corpus.append({macs[i] for i in np.nonzero(inside)[0]})
        estimator = RadiusEstimator(locations, r_max=200.0,
                                    tie_break=1e-6)
        estimator.fit(corpus)
        assert 850 <= estimator.lp_rows <= 1000
        problem = estimator._problem
        revised = problem.solve(solver="revised")
        reference = problem.solve(solver="scipy")
        assert revised.is_optimal and reference.is_optimal
        assert revised.objective == pytest.approx(reference.objective,
                                                  abs=1e-6)
        np.testing.assert_allclose(revised.x[:64], reference.x[:64],
                                   atol=1e-6)


def aprad_refit_estimator():
    """The perfbench ``aprad-refit`` radius LP: an exact 8 x 8 lattice
    at 100 m, each device hearing the 3-4 APs its 20 records walk past
    (seven records per AP, evidence in slots 3-8 of every ten).  Five
    laps of the 448-record walk hold every distinct 20-record window."""
    locations = {MacAddress(i + 1): Point(i % 8 * 100.0, i // 8 * 100.0)
                 for i in range(64)}
    macs = list(locations)
    corpus = {frozenset(macs[i // 7 % 64] for i in range(start, start + 20)
                        if 3 <= i % 10 <= 8)
              for start in range(0, 64 * 7 * 5, 20)}
    return RadiusEstimator(locations, r_max=200.0, tie_break=1e-6), corpus


class TestApRadRefitLp:
    def test_cold_fit_steps_through_breakpoints(self):
        estimator, corpus = aprad_refit_estimator()
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            estimator.fit(corpus)
        counters = registry.snapshot()["counters"]
        assert estimator.lp_rows == 918
        assert counters["repro.lp.revised.phase1_pivots"] == 0
        assert counters["repro.lp.revised.pivots"] <= 100
        assert counters["repro.lp.revised.breakpoints"] > 0
        problem = estimator._problem
        revised_x = problem.solve_revised(
            warm_start=estimator._feasible_start(problem)).x
        reference = problem.solve(solver="scipy")
        np.testing.assert_allclose(revised_x[:64], reference.x[:64],
                                   atol=1e-6)


def test_campus_lp_solves_in_tree():
    # The paper-scale AP-Rad LP (25,715 rows): the in-tree solver must
    # finish under its default iteration limit at HiGHS's optimum.
    exp = build_disc_model_experiment(seed=11)
    estimator = RadiusEstimator(
        {record.bssid: record.location for record in exp.location_db},
        r_max=exp.r_max, min_evidence=exp.aprad_min_evidence)
    fit = estimator.fit(exp.corpus)
    assert fit.lp_rows > 25_000
    # Unit radius weights and the penalty 10 per unit of slack.
    objective = sum(fit.radii.values()) - 10.0 * fit.total_slack
    reference = estimator._problem.solve(solver="scipy")
    assert reference.is_optimal
    assert objective == pytest.approx(reference.objective, rel=1e-9)


#: AP coordinates off the lattice, quantized so distances stay tame.
COORD = st.integers(min_value=0, max_value=12).map(lambda v: v / 4.0)


class ElasticLp:
    """A drawn AP-Rad-shaped LP: ``k`` radii, then one penalty column
    per separated row in row order.  Each row is ``(i, j, separated,
    rhs)``; a separated row reads ``r_i + r_j + coef · p <= rhs``."""

    def __init__(self, data):
        self.k = data.draw(st.integers(min_value=3, max_value=9))
        if data.draw(st.booleans()):  # a lattice: exact distance ties
            self.coords = [(float(i % 3), float(i // 3))
                           for i in range(self.k)]
        else:
            self.coords = [(data.draw(COORD), data.draw(COORD))
                           for _ in range(self.k)]
        self.r_max = data.draw(st.sampled_from([0.75, 1.0, 1.5]))
        self.r_min = data.draw(st.sampled_from([0.0, 0.25]))
        self.penalty = data.draw(st.sampled_from([0.0, 0.5, 2.0, 10.0]))
        self.coef = data.draw(st.sampled_from([-1.0, -0.5, -2.0]))
        self.weights = [1.0 + data.draw(st.integers(0, 3)) / 8.0
                        for _ in range(self.k)]
        self.rows = []
        for i, j in combinations(range(self.k), 2):
            distance = math.dist(self.coords[i], self.coords[j])
            if distance >= 2.0 * self.r_max:
                continue
            kind = data.draw(st.sampled_from(["none", "co", "sep", "sep",
                                              "inert"]))
            if kind != "none":
                self.rows.append(self._row(i, j, kind, distance))

    def _row(self, i, j, kind, distance):
        if kind == "co":
            return (i, j, False, min(distance, 2.0 * self.r_max))
        rhs = 2.0 * self.r_max if kind == "inert" else distance
        return (i, j, True, max(2.0 * self.r_min, rhs))

    def separated(self, rows):
        return [index for index, row in enumerate(rows) if row[2]]

    def problem(self, rows):
        """``(cost, LpRows, lower, upper)`` for ``solve_rows``."""
        lp_rows = LpRows()
        column = self.k
        for i, j, separated, rhs in rows:
            coefficients = {i: 1.0, j: 1.0}
            if separated:
                coefficients[column] = self.coef
                column += 1
            lp_rows.append(coefficients, "<=" if separated else ">=", rhs)
        penalties = column - self.k
        cost = np.array(self.weights + [-self.penalty] * penalties)
        lower = np.array([self.r_min] * self.k + [0.0] * penalties)
        upper = np.array([self.r_max] * self.k + [np.inf] * penalties)
        return cost, lp_rows, lower, upper

    def feasible_start(self, rows):
        """Radii at ``r_max``, penalties basic in their rows: feasible,
        and degenerate wherever a separated rhs is ``2 * r_max``."""
        row_basic = slack_code(np.arange(len(rows)))
        separated = self.separated(rows)
        row_basic[separated] = self.k + np.arange(len(separated))
        return LpState(row_basic=row_basic, at_upper=np.arange(self.k))

    def highs_objective(self, rows):
        linprog = pytest.importorskip("scipy.optimize").linprog
        cost, lp_rows, lower, upper = self.problem(rows)
        start, col, val, sense, rhs = lp_rows.arrays()
        a_ub = np.zeros((len(rows), cost.size))
        for index in range(len(rows)):
            span = slice(start[index], start[index + 1])
            a_ub[index, col[span]] = val[span]
        flip = np.where(sense == 1, -1.0, 1.0)
        outcome = linprog(-cost, A_ub=a_ub * flip[:, None], b_ub=rhs * flip,
                          bounds=list(zip(lower, [None if np.isinf(u)
                                                  else u for u in upper])),
                          method="highs")
        assert outcome.status == 0
        return -outcome.fun


def solve_recorded(problem, **options):
    """``solve_rows`` on ``problem``, plus the solver it ran and the
    counters it left."""
    solvers = []

    class Recording(revised._RevisedSimplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    registry = obs.MetricsRegistry()
    with mock.patch.object(revised, "_RevisedSimplex", Recording), \
            obs.use_registry(registry):
        result = revised.solve_rows(*problem, maximize=True, **options)
    return result, solvers[0], registry.snapshot()["counters"]


def assert_consistent(result, solver, counters):
    assert result.is_optimal
    assert counters["repro.lp.revised.pivots"] == result.iterations
    assert counters["repro.lp.revised.breakpoints"] == result.breakpoints
    # The basic values the steps carried equal a fresh solve of the
    # final basis.
    solver._refresh_from_status()
    residual = solver.rhs - solver.matrix.dot(solver.nonbasic_value)
    fresh = _BasisFactor(solver.matrix, solver.basis).ftran(residual)
    np.testing.assert_allclose(solver.x_basic, fresh, rtol=0.0, atol=1e-9)


class TestLongStep:
    """The phase-2 ratio test passes elastic breakpoints (a separated
    row's slack and its penalty column trading the row) and must land
    where HiGHS does, from any start, in either pricing mode."""

    @pytest.mark.parametrize("penalty, iterations, breakpoints, x", [
        # Past r1 + r2 = 1 the slope -2 turns 8: stop, r1 takes the row.
        (10.0, 1, 0, [1.0, 0.0, 0.0]),
        # Turns -0.5: pass, and r1 runs to its bound.
        (1.5, 1, 1, [5.0, 0.0, 4.0]),
        # r2's weight outbids the penalty too.
        (0.5, 2, 1, [5.0, 5.0, 9.0]),
    ])
    def test_step_stops_where_the_slope_turns(self, penalty, iterations,
                                              breakpoints, x):
        # max 2 r1 + r2 - penalty * p  s.t.  r1 + r2 - p <= 1, from the
        # slack basis: r1 enters and the row's slack falls to 0 at t = 1.
        rows = LpRows.of([({0: 1.0, 1: 1.0, 2: -1.0}, "<=", 1.0)])
        result = revised.solve_rows(
            np.array([2.0, 1.0, -penalty]), rows, np.zeros(3),
            np.array([5.0, 5.0, np.inf]), maximize=True)
        assert (result.iterations, result.breakpoints) == (iterations,
                                                           breakpoints)
        np.testing.assert_allclose(result.x, x, atol=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_elastic_lps_match_highs(self, data):
        lp = ElasticLp(data)
        rows = lp.rows
        start = data.draw(st.sampled_from(["slack", "feasible"]))
        bland_after = data.draw(st.sampled_from([None, 0]))
        result, solver, counters = solve_recorded(
            lp.problem(rows), bland_after=bland_after,
            warm_start=lp.feasible_start(rows) if start == "feasible"
            else None)
        assert_consistent(result, solver, counters)
        if bland_after == 0:
            assert result.breakpoints == 0
        if rows:
            assert result.objective == pytest.approx(
                lp.highs_objective(rows), rel=1e-9, abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_warm_start_after_appended_and_retuned_rows(self, data):
        lp = ElasticLp(data)
        keep = data.draw(st.integers(min_value=0, max_value=len(lp.rows)))
        first_rows = lp.rows[:keep]
        first, _, _ = solve_recorded(lp.problem(first_rows),
                                     warm_start=lp.feasible_start(
                                         first_rows))
        assert first.is_optimal
        # Retune some kept separated rows (as inerting does), then
        # append the rest; penalty columns keep their order.
        rows = list(first_rows)
        for index in lp.separated(rows):
            choice = data.draw(st.sampled_from(["keep", "inert", "tight"]))
            i, j, _, rhs = rows[index]
            if choice == "inert":
                rows[index] = (i, j, True, 2.0 * lp.r_max)
            elif choice == "tight":
                rows[index] = (i, j, True, max(2.0 * lp.r_min, rhs / 2.0))
        rows += lp.rows[keep:]
        bland_after = data.draw(st.sampled_from([None, 0]))
        result, solver, counters = solve_recorded(
            lp.problem(rows), warm_start=first.state,
            bland_after=bland_after)
        assert_consistent(result, solver, counters)
        if rows:
            assert result.objective == pytest.approx(
                lp.highs_objective(rows), rel=1e-9, abs=1e-9)
