"""Random silent periods.

Hu & Wang's framework pairs identifier randomization with a "random
silent period in which mobile nodes don't transmit or receive frames":
if a device rotated its MAC but kept transmitting, the attacker could
link old and new identity by trajectory continuity (the new MAC appears
exactly where the old one vanished).  Silence for a random interval
around the rotation decorrelates the hand-off point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SilentPeriodPolicy:
    """Draws and tracks silent intervals.

    ``min_s``/``max_s`` bound the uniform silent duration.  Call
    :meth:`begin` when an identifier changes; :meth:`is_silent` then
    gates all transmissions until the drawn period elapses.
    """

    min_s: float = 10.0
    max_s: float = 60.0
    _silent_until: float = field(default=-1.0, repr=False)
    periods_served: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_s <= self.max_s:
            raise ValueError(
                f"need 0 <= min <= max, got [{self.min_s}, {self.max_s}]")

    def begin(self, now: float, rng: np.random.Generator) -> float:
        """Start a silent period at ``now``; returns its duration."""
        duration = float(rng.uniform(self.min_s, self.max_s))
        self._silent_until = now + duration
        self.periods_served += 1
        return duration

    def is_silent(self, now: float) -> bool:
        """True while the device must hold radio silence."""
        return now < self._silent_until
