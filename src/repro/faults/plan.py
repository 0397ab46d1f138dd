"""Declarative fault plans: what misbehaves, how hard, and how often.

A :class:`FaultPlan` is an immutable description of hardware misbehavior to
inject into a simulated run -- which antennas die, which PLLs relock
mid-query, how far the shared reference has drifted into holdover, and so
on. Plans carry no randomness themselves: the
:class:`~repro.faults.inject.FaultInjector` derives every random draw from
``(plan hash, base seed, trial index)``, so a plan is a *complete*
specification of a faulty world and two runs with the same plan are
bit-identical regardless of chunking or worker count.

Plans also hash stably (:meth:`FaultPlan.stable_hash`), which is what lets
them participate in the :mod:`repro.runtime.cache` plan-cache key: results
computed under one fault plan can never be served to another.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.hashing import stable_digest

FAULT_KINDS = (
    "antenna_dropout",
    "pll_relock",
    "reference_holdover",
    "trigger_desync",
    "tag_detuning",
    "bit_corruption",
)
"""Recognized fault kinds, in the order DESIGN.md documents them."""

HOLDOVER_DRIFT_STD_HZ = 10.0
"""Per-antenna offset error std at severity 1 (reference in holdover).

A 10 MHz OCXO drifting ~1e-8 fractional while in holdover shifts a
915 MHz carrier by ~9 Hz -- the same order as the paper's Hz-scale CIB
offsets, which is exactly why holdover is the interesting failure.
"""

TRIGGER_DESYNC_STD_S = 1e-3
"""Per-antenna trigger error std at severity 1 (vs the ~100 ns spec)."""

RELOCK_MAX_JUMP_RAD = 3.141592653589793
"""Largest PLL relock phase jump at severity 1 (uniform in +/- this)."""

TAG_DETUNING_MAX_LOSS = 0.9
"""Fraction of harvested voltage lost at detuning severity 1."""

BIT_CORRUPTION_MAX_RATE = 0.05
"""Per-chip flip probability at corruption severity 1.

Kept well below 0.5: a Gen2 reply is only a few dozen chips, so rates
near 1 flip *every* chip -- and a full polarity inversion is invisible
to FM0's transition-based decoder, which would make the degradation
curve non-monotonic instead of sweeping success from ~1 to ~0.
"""


@dataclass(frozen=True)
class FaultEvent:
    """One fault: a kind, a magnitude, and a per-trial firing probability.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        severity: Kind-specific magnitude in [0, 1]. Dropout ignores it
            (an antenna is either dead or not); relock scales the phase
            jump; holdover scales the frequency drift; desync scales the
            trigger error; detuning scales the voltage loss; corruption
            scales the per-chip flip rate (up to
            :data:`BIT_CORRUPTION_MAX_RATE`).
        probability: Probability that the event fires in a given trial.
        antennas: Explicit antenna indices the event touches, or None for
            every antenna (dropout with None drops one antenna chosen
            deterministically per trial).
    """

    kind: str
    severity: float = 1.0
    probability: float = 1.0
    antennas: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not 0.0 <= self.severity <= 1.0:
            raise ConfigurationError(
                f"severity must be in [0, 1], got {self.severity}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.antennas is not None:
            antennas = tuple(int(a) for a in self.antennas)
            if any(a < 0 for a in antennas):
                raise ConfigurationError(
                    f"antenna indices must be >= 0, got {antennas}"
                )
            if len(set(antennas)) != len(antennas):
                raise ConfigurationError(
                    f"antenna indices must be distinct, got {antennas}"
                )
            object.__setattr__(self, "antennas", antennas)

    def to_dict(self) -> dict:
        """Canonical JSON-able form (the unit the plan hash is built on)."""
        return {
            "kind": self.kind,
            "severity": float(self.severity),
            "probability": float(self.probability),
            "antennas": None if self.antennas is None else list(self.antennas),
        }


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault events applied together.

    Attributes:
        events: The fault events; order is part of the plan identity.
        name: Optional human label for tables and traces (not hashed, so
            renaming a plan does not invalidate caches).
    """

    events: Tuple[FaultEvent, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing (the healthy baseline)."""
        return not self.events

    @property
    def n_events(self) -> int:
        return len(self.events)

    def stable_hash(self) -> str:
        """Deterministic hex digest of the plan's semantic content.

        Stable across processes and Python versions (canonical JSON under
        SHA-256), so it can seed the injector's random streams and key
        caches.
        """
        return stable_digest([event.to_dict() for event in self.events], 16)

    def cache_token(self) -> str:
        """The plan's contribution to runtime plan-cache keys.

        Empty plans share the fixed token ``"none"`` so a healthy run and
        an un-faulted legacy run hit the same cache entries.
        """
        return "none" if self.is_empty else f"faults:{self.stable_hash()}"

    def seed_material(self) -> int:
        """The plan hash as an integer, used to key injector rng streams."""
        return int(self.stable_hash(), 16)

    def label(self) -> str:
        """Human-readable identity for tables and span attributes."""
        if self.name:
            return self.name
        if self.is_empty:
            return "healthy"
        return "+".join(event.kind for event in self.events)


EMPTY_PLAN = FaultPlan()
"""The shared healthy baseline: inject nothing, change nothing."""


def antenna_dropout(
    antennas: Optional[Tuple[int, ...]] = None, probability: float = 1.0
) -> FaultPlan:
    """Plan: the listed antennas/PAs are dead (None = one per trial)."""
    return FaultPlan(
        events=(
            FaultEvent(
                kind="antenna_dropout",
                antennas=antennas,
                probability=probability,
            ),
        ),
        name="antenna_dropout",
    )


def pll_relock(
    severity: float,
    antennas: Optional[Tuple[int, ...]] = None,
    probability: float = 1.0,
) -> FaultPlan:
    """Plan: PLLs relock mid-query with a random phase jump."""
    return FaultPlan(
        events=(
            FaultEvent(
                kind="pll_relock",
                severity=severity,
                antennas=antennas,
                probability=probability,
            ),
        ),
        name="pll_relock",
    )


def reference_holdover(severity: float, probability: float = 1.0) -> FaultPlan:
    """Plan: the shared 10 MHz reference drifts into holdover."""
    return FaultPlan(
        events=(
            FaultEvent(
                kind="reference_holdover",
                severity=severity,
                probability=probability,
            ),
        ),
        name="reference_holdover",
    )


def trigger_desync(severity: float, probability: float = 1.0) -> FaultPlan:
    """Plan: trigger distribution desyncs far beyond the 100 ns spec."""
    return FaultPlan(
        events=(
            FaultEvent(
                kind="trigger_desync", severity=severity, probability=probability
            ),
        ),
        name="trigger_desync",
    )


def tag_detuning(severity: float, probability: float = 1.0) -> FaultPlan:
    """Plan: the tag antenna detunes, losing harvested voltage."""
    return FaultPlan(
        events=(
            FaultEvent(
                kind="tag_detuning", severity=severity, probability=probability
            ),
        ),
        name="tag_detuning",
    )


def bit_corruption(severity: float, probability: float = 1.0) -> FaultPlan:
    """Plan: link chips flip at ``severity`` times the max corruption rate."""
    return FaultPlan(
        events=(
            FaultEvent(
                kind="bit_corruption", severity=severity, probability=probability
            ),
        ),
        name="bit_corruption",
    )
