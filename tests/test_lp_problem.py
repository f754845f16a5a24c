"""LpProblem modeling-layer tests, including backend agreement."""

import pytest

from repro.lp.problem import LpProblem


def build_sample_problem() -> LpProblem:
    problem = LpProblem(maximize=True)
    x = problem.add_variable("x", low=0.0, up=10.0)
    y = problem.add_variable("y", low=0.0, up=10.0)
    problem.add_constraint({x: 1.0, y: 2.0}, "<=", 4.0)
    problem.add_constraint({x: 3.0, y: 1.0}, "<=", 6.0)
    problem.set_objective({x: 1.0, y: 1.0})
    return problem


class TestModeling:
    def test_counters(self):
        problem = build_sample_problem()
        assert problem.num_variables == 2
        assert problem.num_constraints == 2

    def test_invalid_bounds(self):
        problem = LpProblem()
        with pytest.raises(ValueError):
            problem.add_variable("x", low=5.0, up=1.0)

    def test_invalid_sense(self):
        problem = LpProblem()
        x = problem.add_variable("x")
        with pytest.raises(ValueError):
            problem.add_constraint({x: 1.0}, "<", 1.0)

    def test_unknown_variable_in_constraint(self):
        problem = LpProblem()
        problem.add_variable("x")
        with pytest.raises(IndexError):
            problem.add_constraint({5: 1.0}, "<=", 1.0)

    def test_unknown_variable_in_objective(self):
        problem = LpProblem()
        with pytest.raises(IndexError):
            problem.set_objective({0: 1.0})

    def test_unknown_solver(self):
        problem = build_sample_problem()
        with pytest.raises(ValueError):
            problem.solve(solver="gurobi")


class TestSolving:
    def test_simplex_backend(self):
        result = build_sample_problem().solve(solver="revised")
        assert result.is_optimal
        assert result.objective == pytest.approx(2.8)

    def test_scipy_backend(self):
        result = build_sample_problem().solve(solver="scipy")
        assert result.is_optimal
        assert result.objective == pytest.approx(2.8)

    def test_backends_agree(self):
        ours = build_sample_problem().solve(solver="revised")
        scipy_result = build_sample_problem().solve(solver="scipy")
        assert ours.objective == pytest.approx(scipy_result.objective)

    def test_value_accessor(self):
        problem = build_sample_problem()
        result = problem.solve()
        assert problem.value(result, 0) == pytest.approx(1.6)
        assert problem.value(result, 1) == pytest.approx(1.2)

    def test_value_on_failed_solve_raises(self):
        problem = LpProblem(maximize=True)
        x = problem.add_variable("x", low=0.0)  # unbounded above
        problem.set_objective({x: 1.0})
        result = problem.solve()
        assert not result.is_optimal
        with pytest.raises(ValueError):
            problem.value(result, 0)

    def test_equality_and_geq_mix(self):
        problem = LpProblem()
        x = problem.add_variable("x", low=0.0, up=10.0)
        y = problem.add_variable("y", low=0.0, up=10.0)
        problem.add_constraint({x: 1.0, y: 1.0}, "==", 6.0)
        problem.add_constraint({x: 1.0}, ">=", 2.0)
        problem.set_objective({y: 1.0})  # minimize y
        for solver in ("revised", "scipy"):
            result = problem.solve(solver=solver)
            assert result.is_optimal
            assert result.x[0] + result.x[1] == pytest.approx(6.0)
            assert result.objective == pytest.approx(0.0, abs=1e-9)
            assert result.x[0] == pytest.approx(6.0)


class TestRaiseOnFailure:
    def test_infeasible_raises_typed_error(self):
        from repro.faults import InfeasibleError

        problem = LpProblem()
        x = problem.add_variable("x", low=0.0, up=10.0)
        problem.add_constraint({x: 1.0}, ">=", 3.0)
        problem.add_constraint({x: 1.0}, "<=", 1.0)
        problem.set_objective({x: 1.0})
        with pytest.raises(InfeasibleError):
            problem.solve(raise_on_failure=True)

    def test_unbounded_raises_typed_error(self):
        from repro.faults import UnboundedError

        problem = LpProblem(maximize=True)
        x = problem.add_variable("x", low=0.0)
        problem.set_objective({x: 1.0})
        with pytest.raises(UnboundedError):
            problem.solve(raise_on_failure=True)

    def test_typed_errors_are_runtime_errors(self):
        from repro.faults import SolverError

        problem = LpProblem(maximize=True)
        x = problem.add_variable("x", low=0.0)
        problem.set_objective({x: 1.0})
        with pytest.raises(RuntimeError) as excinfo:
            problem.solve(solver="revised", raise_on_failure=True)
        assert isinstance(excinfo.value, SolverError)
        assert excinfo.value.status == "unbounded"

    def test_default_returns_status_result(self):
        problem = LpProblem()
        x = problem.add_variable("x", low=0.0, up=10.0)
        problem.add_constraint({x: 1.0}, ">=", 3.0)
        problem.add_constraint({x: 1.0}, "<=", 1.0)
        problem.set_objective({x: 1.0})
        result = problem.solve()
        assert not result.is_optimal
        assert result.status == "infeasible"
