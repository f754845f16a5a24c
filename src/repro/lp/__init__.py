"""Linear-programming substrate for the AP-Rad radius estimation.

AP-Rad (paper Section III-C2) estimates every AP's maximum transmission
distance by solving::

    maximize   sum(r_i)
    subject to r_i + r_j >= d_ij   for co-observed AP pairs
               r_i + r_j <  d_ij   for never-co-observed pairs
               0 <= r_i <= r_max

This package provides one from-scratch solver behind a modeling layer
(:class:`LpProblem`): :func:`solve_revised`, a sparse revised simplex
(CSC constraint storage; the basis factored as singleton columns
around a small dense core whose inverse each pivot updates in place)
that accepts an :class:`LpState` warm start, so streaming AP-Rad
re-fits restart from the previous optimal basis.  It needs NumPy only.
The test suite cross-checks it against ``scipy.optimize.linprog``
(HiGHS), its oracle; the library itself never imports scipy.
"""

from repro.lp.revised import LpState, RevisedResult, solve_revised
from repro.lp.problem import LpProblem

__all__ = [
    "LpProblem",
    "solve_revised",
    "RevisedResult",
    "LpState",
]
