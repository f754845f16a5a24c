"""Retry with exponential backoff, deterministic and clock-injectable.

The engine wraps its fallible stages — sink emission, batch
localization, scheduled re-fits — in a :class:`RetryPolicy`.  The policy
is deliberately boring: a fixed attempt budget, an exponential delay
schedule with optional seeded jitter, and a *type-based* retryable
filter (the :mod:`repro.faults.errors` hierarchy exists precisely so
this filter never string-matches).

Determinism: the jitter stream restarts from ``seed`` on every
:meth:`call`, so each supervised call sees the same schedule and two
runs of the same stream back off identically.  ``sleep`` is injectable
so tests assert the schedule against a fake clock without sleeping.
"""

from __future__ import annotations

import random
import time
from typing import Callable, List, Optional, Tuple, Type

from repro.faults.errors import ReproError


class RetryPolicy:
    """Exponential-backoff retry over typed, retryable failures.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first (``1`` = no retries).
    base_delay:
        Delay before the first retry, seconds.
    multiplier:
        Backoff factor between consecutive retries.
    max_delay:
        Cap applied before jitter.
    jitter:
        Fraction of extra randomized delay: each delay is multiplied by
        ``1 + jitter * u`` with ``u`` uniform in [0, 1) from the seeded
        stream.  ``0`` disables jitter entirely.
    retryable:
        Exception types worth retrying; anything else propagates
        immediately.
    seed:
        Seed for the jitter stream (restarted per :meth:`call`).
    sleep:
        The clock; tests inject a recorder instead of sleeping.
    """

    def __init__(self, max_attempts: int = 3, base_delay: float = 0.05,
                 multiplier: float = 2.0, max_delay: float = 2.0,
                 jitter: float = 0.0,
                 retryable: Tuple[Type[BaseException], ...] = (ReproError,),
                 seed: int = 0,
                 sleep: Callable[[float], None] = time.sleep):
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0.0:
            raise ValueError(f"base_delay must be >= 0, got {base_delay}")
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        if not 0.0 <= jitter:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.retryable = tuple(retryable)
        self.seed = seed
        self._sleep = sleep

    def delays(self) -> List[float]:
        """The deterministic backoff schedule (one delay per retry)."""
        rng = random.Random(self.seed)
        schedule: List[float] = []
        for attempt in range(self.max_attempts - 1):
            delay = min(self.max_delay,
                        self.base_delay * self.multiplier ** attempt)
            if self.jitter:
                delay *= 1.0 + self.jitter * rng.random()
            schedule.append(delay)
        return schedule

    def call(self, fn: Callable[[], object], *,
             on_retry: Optional[Callable[[int, BaseException, float],
                                         None]] = None):
        """Run ``fn`` under the policy; returns its result.

        ``on_retry(attempt, error, delay)`` is invoked before each
        backoff sleep (attempt numbering starts at 1 for the failed
        attempt).  The final failure re-raises the original exception.
        """
        schedule = None  # built on the first failure, not per call
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except self.retryable as error:
                if attempt >= self.max_attempts:
                    raise
                if schedule is None:
                    schedule = self.delays()
                delay = schedule[attempt - 1]
                if on_retry is not None:
                    on_retry(attempt, error, delay)
                if delay > 0.0:
                    self._sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover
