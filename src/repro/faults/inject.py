"""Deterministic realization of fault plans against simulation state.

A :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan` to a
base seed and answers, for any absolute trial index, "what exactly broke in
this trial". Every random draw comes from a generator seeded with
``(stream tag, plan hash, base seed, trial index, stream id)``, so the
realization of trial *k* is a pure function of the plan and the seed --
independent of chunk boundaries, worker count, and evaluation order. That
is the determinism contract the campaign runner and the ``--workers {1,4}``
equality tests rely on.

The injector is deliberately passive: host modules (``reader.link``,
``gen2.decoder``, ``runtime.engine``, ``faults.campaign``,
``fleet.population``, ``fleet.collision``) accept an optional injector and
call the hook matching their plane. An inactive injector (or ``None``)
must leave every host bit-identical to the pre-fault code path; hosts
guarantee that by short-circuiting on :attr:`FaultInjector.active` before
touching any state and by never letting the injector draw from the trial's
main generator.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.faults.plan import (
    BIT_CORRUPTION_MAX_RATE,
    HOLDOVER_DRIFT_STD_HZ,
    RELOCK_MAX_JUMP_RAD,
    TAG_DETUNING_MAX_LOSS,
    TRIGGER_DESYNC_STD_S,
    FaultPlan,
)
from repro.obs.context import current_obs

_STREAM_TAG = 0x1FA017
"""Domain-separation tag so fault streams never collide with trial rngs."""

STREAM_DROPOUT = 0
STREAM_PERTURB = 1
STREAM_WAVEFORM = 4
STREAM_ENVELOPE = 5
"""Per-purpose sub-streams: each hook draws from its own generator, so
calling hooks in any combination or order cannot shift another hook's
randomness within the same trial. Ids 2 and 3 belonged to retired hooks
(sample-level trigger errors and hard-chip flips); they stay unused so the
remaining streams keep their draws."""


@dataclass(frozen=True)
class PerturbedTrial:
    """What one trial's carrier-domain quantities look like after faults.

    Attributes:
        offsets_hz: Possibly drifted per-antenna frequency offsets.
        betas: Possibly jumped per-antenna phases.
        amplitudes: Per-antenna amplitudes (zeroed for dropped antennas).
        voltage_scale: Multiplier on the harvested input voltage
            (tag-detuning plane; 1.0 when untouched).
        offsets_changed: True when the offsets differ from the plan's --
            the signal that batched FFT evaluation is no longer valid for
            this trial.
        events_applied: Kinds of the events that actually fired.
    """

    offsets_hz: np.ndarray
    betas: np.ndarray
    amplitudes: np.ndarray
    voltage_scale: float = 1.0
    offsets_changed: bool = False
    events_applied: Tuple[str, ...] = ()


class FaultInjector:
    """Realizes a fault plan deterministically, one trial at a time.

    Args:
        plan: The fault plan to realize.
        base_seed: The experiment's base seed; keying the fault streams on
            it keeps fault realizations paired with the channel draws of
            the same run, while never consuming from the trial's own
            generator.
    """

    def __init__(self, plan: FaultPlan, base_seed: int = 0):
        self.plan = plan
        self.base_seed = int(base_seed) % (2**63)
        self._plan_material = 0 if plan.is_empty else plan.seed_material()

    @property
    def active(self) -> bool:
        """Whether any hook may alter state (False for the empty plan)."""
        return not self.plan.is_empty

    def trial_rng(
        self, trial_index: int, stream: int = STREAM_PERTURB
    ) -> np.random.Generator:
        """The dedicated fault generator of one (trial, stream) pair."""
        sequence = np.random.SeedSequence(
            [
                _STREAM_TAG,
                self._plan_material,
                self.base_seed,
                int(trial_index),
                int(stream),
            ]
        )
        return np.random.default_rng(sequence)

    def _targets(
        self, antennas: Optional[Tuple[int, ...]], n_antennas: int
    ) -> List[int]:
        if antennas is None:
            return list(range(n_antennas))
        return [a for a in antennas if a < n_antennas]

    # -- carrier plane -----------------------------------------------------------

    def dropped_antennas(
        self, trial_index: int, n_antennas: int
    ) -> Tuple[int, ...]:
        """Antenna indices dead in this trial (sorted, possibly empty).

        An ``antenna_dropout`` event with explicit antennas kills exactly
        those; with ``antennas=None`` it kills one antenna chosen
        uniformly per trial -- the configuration the N-1 degradation
        experiment sweeps.
        """
        if not self.active:
            return ()
        rng = self.trial_rng(trial_index, STREAM_DROPOUT)
        dead: set = set()
        for event in self.plan.events:
            if event.kind != "antenna_dropout":
                continue
            if rng.random() >= event.probability:
                continue
            if event.antennas is None:
                dead.add(int(rng.integers(n_antennas)))
            else:
                dead.update(self._targets(event.antennas, n_antennas))
        return tuple(sorted(dead))

    def perturb_trial(
        self,
        trial_index: int,
        offsets_hz: np.ndarray,
        betas: np.ndarray,
        amplitudes: np.ndarray,
    ) -> PerturbedTrial:
        """Apply every carrier-plane fault to one trial's arrays.

        The inputs are never modified; the returned arrays are copies
        (aliases of the inputs when the injector is inactive, so the
        healthy path stays allocation-free).
        """
        offsets = np.asarray(offsets_hz, dtype=float)
        betas = np.asarray(betas, dtype=float)
        amplitudes = np.asarray(amplitudes, dtype=float)
        if not self.active:
            return PerturbedTrial(
                offsets_hz=offsets, betas=betas, amplitudes=amplitudes
            )
        n_antennas = offsets.size
        offsets = offsets.copy()
        betas = betas.copy()
        amplitudes = amplitudes.copy()
        voltage_scale = 1.0
        offsets_changed = False
        applied: List[str] = []

        dead = self.dropped_antennas(trial_index, n_antennas)
        if dead:
            amplitudes[list(dead)] = 0.0
            applied.append("antenna_dropout")

        rng = self.trial_rng(trial_index, STREAM_PERTURB)
        for event in self.plan.events:
            if event.kind == "antenna_dropout":
                continue  # handled above on its own stream
            if rng.random() >= event.probability:
                continue
            if event.kind == "pll_relock":
                jumps = rng.uniform(
                    -RELOCK_MAX_JUMP_RAD, RELOCK_MAX_JUMP_RAD, size=n_antennas
                )
                targets = self._targets(event.antennas, n_antennas)
                betas[targets] += event.severity * jumps[targets]
            elif event.kind == "reference_holdover":
                drift = rng.normal(
                    0.0,
                    HOLDOVER_DRIFT_STD_HZ * event.severity,
                    size=n_antennas,
                )
                offsets += drift
                offsets_changed = True
            elif event.kind == "trigger_desync":
                # A trigger error tau_i delays antenna i's carrier, which
                # in the envelope domain is the phase shift 2*pi*f_i*tau_i.
                tau = rng.normal(
                    0.0, TRIGGER_DESYNC_STD_S * event.severity, size=n_antennas
                )
                betas += 2.0 * math.pi * offsets * tau
            elif event.kind == "tag_detuning":
                voltage_scale *= 1.0 - TAG_DETUNING_MAX_LOSS * event.severity
            elif event.kind == "bit_corruption":
                continue  # link plane; no carrier-domain effect
            else:  # pragma: no cover - FaultEvent validates kinds
                continue
            applied.append(event.kind)

        metrics = current_obs().metrics
        metrics.counter("faults.trials_evaluated").inc()
        if applied:
            metrics.counter("faults.trials_affected").inc()
            metrics.counter("faults.events_applied").inc(len(applied))
        return PerturbedTrial(
            offsets_hz=offsets,
            betas=betas,
            amplitudes=amplitudes,
            voltage_scale=voltage_scale,
            offsets_changed=offsets_changed,
            events_applied=tuple(applied),
        )

    # -- link plane --------------------------------------------------------------

    def _corruption_rates(self, rng: np.random.Generator) -> List[float]:
        """Per-chip flip rates of the ``bit_corruption`` events that fire."""
        rates: List[float] = []
        for event in self.plan.events:
            if event.kind != "bit_corruption":
                continue
            if rng.random() >= event.probability:
                continue
            rates.append(BIT_CORRUPTION_MAX_RATE * event.severity)
        return rates

    def corrupt_waveform(
        self,
        trial_index: int,
        waveform: np.ndarray,
        samples_per_chip: int,
    ) -> np.ndarray:
        """Invert chip-long segments of a sampled bipolar waveform.

        Models uplink corruption ahead of the reader's correlator: each
        chip-duration segment flips polarity independently at the plan's
        corruption rate. Returns the input array itself when inactive.
        """
        data = np.asarray(waveform, dtype=float)
        if not self.active:
            return data
        rng = self.trial_rng(trial_index, STREAM_WAVEFORM)
        rates = self._corruption_rates(rng)
        if not rates:
            return data
        samples_per_chip = max(1, int(samples_per_chip))
        n_chips = max(1, math.ceil(data.size / samples_per_chip))
        sign = np.ones(n_chips)
        flipped = 0
        for rate in rates:
            flips = rng.random(n_chips) < rate
            sign = np.where(flips, -sign, sign)
            flipped += int(np.count_nonzero(flips))
        if not flipped:
            return data
        current_obs().metrics.counter("faults.chips_flipped").inc(flipped)
        return data * np.repeat(sign, samples_per_chip)[: data.size]

    def corrupt_envelope(
        self, trial_index: int, envelope: np.ndarray
    ) -> np.ndarray:
        """Corrupt a downlink amplitude envelope sample-by-sample.

        Selected samples swap between the envelope's low and high levels
        (a PIE low-pulse filling in, or a high interval collapsing),
        modeling downlink bit corruption before the sensor's envelope
        detector. Returns the input array itself when inactive.
        """
        data = np.asarray(envelope, dtype=float)
        if not self.active:
            return data
        rng = self.trial_rng(trial_index, STREAM_ENVELOPE)
        rates = self._corruption_rates(rng)
        if not rates:
            return data
        low = float(np.min(data))
        high = float(np.max(data))
        out = data.copy()
        corrupted = 0
        for rate in rates:
            flips = rng.random(out.size) < rate
            out = np.where(flips, high + low - out, out)
            corrupted += int(np.count_nonzero(flips))
        if not corrupted:
            return data
        current_obs().metrics.counter("faults.samples_corrupted").inc(corrupted)
        return out
