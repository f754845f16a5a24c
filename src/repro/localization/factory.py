"""Spec-string construction of localizers (``make_localizer``).

The CLI, the experiment harness, and tests all need "give me algorithm
X configured with Y" without each growing its own constructor wiring.
A spec is the algorithm name, optionally followed by ``:`` and
comma-separated ``key=value`` overrides::

    make_localizer("m-loc", database=db)
    make_localizer("m-loc:fallback_range_m=120", database=db)
    make_localizer("ap-rad:r_max=150,min_evidence=2", database=db)
    make_localizer("ap-loc:training_radius_m=90,r_max=150",
                   training=tuples)

Values are coerced ``int`` → ``float`` → ``bool`` → ``str`` in that
order, so ``mode=region`` stays a string while ``r_max=150`` becomes
a number.  Keyword arguments to :func:`make_localizer` are defaults the
spec can override — the CLI passes its flag values that way.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.localization.aploc import APLoc
from repro.localization.aprad import APRad
from repro.localization.base import Localizer
from repro.localization.centroid import CentroidLocalizer
from repro.localization.fallback import FallbackLocalizer
from repro.localization.mloc import MLoc
from repro.localization.nearest import NearestApLocalizer
from repro.localization.weighted import WeightedCentroidLocalizer

#: spec name → (class, needs_database, needs_training)
_LOCALIZERS = {
    "m-loc": (MLoc, True, False),
    "ap-rad": (APRad, True, False),
    "ap-loc": (APLoc, False, True),
    "centroid": (CentroidLocalizer, True, False),
    "nearest-ap": (NearestApLocalizer, True, False),
    "weighted-centroid": (WeightedCentroidLocalizer, True, False),
}

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False}


def localizer_names() -> Sequence[str]:
    """The spec names :func:`make_localizer` accepts, stable order."""
    return tuple(_LOCALIZERS)


def _coerce(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    lowered = text.lower()
    if lowered in _BOOL_WORDS:
        return _BOOL_WORDS[lowered]
    return text


def parse_spec(spec: str) -> "tuple[str, Dict[str, object]]":
    """Split ``name:key=value,...`` into the name and override dict."""
    name, _, tail = spec.partition(":")
    name = name.strip()
    if not name:
        raise ValueError(f"empty localizer name in spec {spec!r}")
    overrides: Dict[str, object] = {}
    if tail.strip():
        for part in tail.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep or not key.strip():
                raise ValueError(
                    f"malformed option {part!r} in spec {spec!r} "
                    "(expected key=value)")
            overrides[key.strip()] = _coerce(value.strip())
    return name, overrides


def make_localizer(spec: str, database=None, training=None,
                   **defaults) -> Localizer:
    """Build any :class:`Localizer` from a spec string.

    Parameters
    ----------
    spec:
        ``name`` or ``name:key=value,...`` — see the module docstring.
    database:
        The :class:`~repro.knowledge.apdb.ApDatabase` for algorithms
        that take AP knowledge (all but ``ap-loc``).
    training:
        Wardriving :class:`~repro.knowledge.wardrive.TrainingTuple`
        sequence, required by ``ap-loc`` only.
    defaults:
        Constructor keyword defaults; spec overrides win.

    A ``+fallback:`` suffix builds a graceful-degradation chain: the
    spec before the suffix is the primary tier, and the comma-separated
    *names* after it are tried in order when the primary is unfitted,
    raises a solver error, or answers ``None`` —
    ``"ap-rad:r_max=150+fallback:m-loc,centroid"`` yields a
    :class:`FallbackLocalizer` over three tiers.  (Fallback tiers take
    no per-tier options, and keyword ``defaults`` bind to the primary
    tier only — they are usually algorithm-specific.)
    """
    head, fallback_sep, fallback_tail = spec.partition("+fallback:")
    if fallback_sep:
        tier_names = [part.strip() for part in fallback_tail.split(",")
                      if part.strip()]
        if not tier_names:
            raise ValueError(
                f"empty fallback chain in spec {spec!r}")
        tiers = [make_localizer(head, database=database,
                                training=training, **defaults)]
        for tier_name in tier_names:
            tiers.append(make_localizer(tier_name, database=database,
                                        training=training))
        return FallbackLocalizer(tiers)
    name, overrides = parse_spec(spec)
    try:
        cls, needs_db, needs_training = _LOCALIZERS[name]
    except KeyError:
        known = ", ".join(_LOCALIZERS)
        raise ValueError(
            f"unknown localizer {name!r}; expected one of: {known}"
        ) from None
    kwargs = dict(defaults)
    kwargs.update(overrides)
    if needs_db:
        if database is None:
            raise ValueError(f"localizer {name!r} requires a database")
        args = (database,)
    elif needs_training:
        if training is None:
            raise ValueError(
                f"localizer {name!r} requires wardriving training tuples")
        args = (training,)
    else:  # pragma: no cover - every current entry needs one or the other
        args = ()
    try:
        return cls(*args, **kwargs)
    except (TypeError, ValueError) as error:
        raise ValueError(
            f"bad options for localizer {name!r}: {error}") from None


def make_localizers(specs: Sequence[str], database=None, training=None,
                    shared: Optional[Dict[str, object]] = None
                    ) -> "list[Localizer]":
    """Vector convenience: one :func:`make_localizer` call per spec."""
    shared = shared or {}
    return [make_localizer(spec, database=database, training=training,
                           **shared)
            for spec in specs]
