"""repro — a reproduction of "The Digital Marauder's Map: A New Threat to
Location Privacy in Wireless Networks" (Fu et al., ICDCS 2009).

The package implements the paper's malicious wireless tracking system
end to end on a simulated substrate:

* :mod:`repro.radio` — receiver chains, the Theorem 1 link budget,
  propagation models, 802.11 channels,
* :mod:`repro.net80211` — management frames, APs, stations, the medium,
* :mod:`repro.sniffer` — the capture system, observation database,
  active attack, device tracking,
* :mod:`repro.knowledge` — AP databases (WiGLE-style) and wardriving,
* :mod:`repro.localization` — **M-Loc, AP-Rad, AP-Loc** and the
  Centroid / Nearest-AP baselines,
* :mod:`repro.theory` — Theorems 1–3 numerics,
* :mod:`repro.sim` — the campus world used in place of field tests,
* :mod:`repro.analysis` / :mod:`repro.display` — experiment harness and
  the map display,
* :mod:`repro.faults` — the typed failure hierarchy, deterministic
  fault injection and retry policies behind the streaming
  engine's fault tolerance.

Quickstart::

    from repro.sim import build_attack_scenario
    from repro.localization import MLoc

    scenario = build_attack_scenario(seed=7)
    scenario.world.run(duration_s=240.0)
    store = scenario.world.sniffer.store
    gamma = store.gamma(scenario.victim.mac)
    estimate = MLoc(scenario.truth_db).locate(gamma)
    print(estimate.position)
"""

from repro.faults import (
    CaptureError,
    CheckpointError,
    InfeasibleError,
    ReproError,
    SinkError,
    SolverError,
    UnboundedError,
)
from repro.geometry import Circle, DiscIntersection, Point
from repro.knowledge import ApDatabase, ApRecord, TrainingTuple
from repro.localization import (
    APLoc,
    APRad,
    CentroidLocalizer,
    LocalizationEstimate,
    MLoc,
    NearestApLocalizer,
)
from repro.net80211 import AccessPoint, MacAddress, MobileStation, Ssid

__version__ = "0.1.0"

__all__ = [
    "Point",
    "Circle",
    "DiscIntersection",
    "MacAddress",
    "Ssid",
    "AccessPoint",
    "MobileStation",
    "ApRecord",
    "ApDatabase",
    "TrainingTuple",
    "MLoc",
    "APRad",
    "APLoc",
    "CentroidLocalizer",
    "NearestApLocalizer",
    "LocalizationEstimate",
    "ReproError",
    "CaptureError",
    "SolverError",
    "InfeasibleError",
    "UnboundedError",
    "SinkError",
    "CheckpointError",
    "__version__",
]
