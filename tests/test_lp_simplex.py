"""Simplex outcome checks that call the revised solver directly.

These cover bound-level infeasibility and a scipy cross-check on
``<=``-only LPs given as dense rows, the form the in-tree simplex has
always been checked in.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.lp import solve_revised


def dense_rows(a_ub, b_ub):
    """``(coefficients, "<=", rhs)`` rows from a dense ``A_ub``/``b_ub``."""
    return [({j: v for j, v in enumerate(row) if v != 0.0}, "<=", rhs)
            for row, rhs in zip(a_ub, b_ub)]


class TestDegenerateOutcomes:
    def test_infeasible_bounds(self):
        result = solve_revised([1.0], [], lower=[5.0], upper=[4.0])
        assert result.status == "infeasible"
        assert result.x is None


class TestScipyCrossCheck:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_lps_match_scipy(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        m = data.draw(st.integers(min_value=0, max_value=6))
        # Quantize coefficients to 1/64ths: denormal-ish entries like
        # 1e-7 make the instance so ill-conditioned that HiGHS's own
        # feasibility tolerance (~1e-9 on a variable) amplifies into
        # objective differences far beyond any sane comparison
        # tolerance — both solvers are "right" within their tolerances
        # yet disagree.  Well-scaled coefficients keep the cross-check
        # meaningful.
        coef = st.floats(min_value=-5.0, max_value=5.0,
                         allow_nan=False, allow_infinity=False,
                         ).map(lambda v: round(v * 64.0) / 64.0)
        c = data.draw(st.lists(coef, min_size=n, max_size=n))
        a_ub = [data.draw(st.lists(coef, min_size=n, max_size=n))
                for _ in range(m)]
        # Nonnegative RHS keeps most instances feasible (origin works).
        b_ub = data.draw(st.lists(
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False,
                      ).map(lambda v: round(v * 64.0) / 64.0),
            min_size=m, max_size=m))
        bounds = [(0.0, 10.0)] * n

        ours = solve_revised(c, dense_rows(a_ub, b_ub),
                             lower=[low for low, _ in bounds],
                             upper=[up for _, up in bounds])
        reference = linprog(c, A_ub=np.array(a_ub) if m else None,
                            b_ub=np.array(b_ub) if m else None,
                            bounds=bounds, method="highs")
        if reference.status == 0:
            assert ours.is_optimal
            assert ours.objective == pytest.approx(reference.fun,
                                                   rel=1e-6, abs=1e-6)
        elif reference.status == 2:
            assert ours.status == "infeasible"
