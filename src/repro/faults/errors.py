"""The typed exception hierarchy for the whole reproduction.

Every failure the fault-tolerance layer supervises is classified here,
rooted at :class:`ReproError`, so policies can be written by *type*
(``retryable=(ReproError,)``) instead of string-matching messages or
status fields.

Several classes double-inherit a builtin exception on purpose:
callers that predate the hierarchy catch ``ValueError`` around
checkpoint loads and ``RuntimeError`` around LP solves, and those
handlers must keep working while the typed layer is adopted.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base of every typed failure raised by this reproduction."""


class CaptureError(ReproError, ValueError):
    """A capture file or record could not be read or parsed."""


class SolverError(ReproError, RuntimeError):
    """An LP solve did not produce an optimum."""

    #: The solver status that triggered the failure, when known.
    status: str = ""

    def __init__(self, message: str = "", status: str = ""):
        super().__init__(message or status or "LP solve failed")
        self.status = status


class InfeasibleError(SolverError):
    """The LP has no feasible point."""

    def __init__(self, message: str = ""):
        super().__init__(message or "LP is infeasible",
                         status="infeasible")


class UnboundedError(SolverError):
    """The LP objective is unbounded over the feasible region."""

    def __init__(self, message: str = ""):
        super().__init__(message or "LP is unbounded",
                         status="unbounded")


class SinkError(ReproError):
    """A sink rejected an emitted estimate."""


class CheckpointError(ReproError, ValueError):
    """A checkpoint could not be written, or no valid one could be read."""
