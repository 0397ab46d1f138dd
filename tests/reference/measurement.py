"""Per-trial loops of the Section 6 measurement functions.

References for :func:`repro.experiments.common.measure_gain_trials`,
:func:`~repro.experiments.common.power_up_probability` and
:func:`~repro.experiments.common.measure_strategy_gains`, plus
:func:`peak_amplitudes_scalar`, the per-draw loop behind
:func:`repro.runtime.engine.peak_amplitudes`. The batched engine's direct
tier (taken for offsets that are not distinct integer bins) reproduces
them bit for bit at fixed seeds; its FFT tier agrees to ~1e-13 relative.
"""

from typing import Callable, List, Optional

import numpy as np

from repro.analysis.mc import spawn_rngs
from repro.core import waveform
from repro.core.baselines import (
    BlindSameFrequencyTransmitter,
    CIBTransmitter,
    SingleAntennaTransmitter,
    TransmitterStrategy,
)
from repro.core.plan import CarrierPlan
from repro.em.channel import BlindChannel
from repro.em.media import Medium
from repro.experiments.common import (
    CAPTURE_DURATION_S,
    GainSample,
    peak_input_voltage_v,
)
from repro.sensors.tags import TagSpec


def measure_gain_trials_scalar(
    channel_factory: Callable[[np.random.Generator], BlindChannel],
    plan: CarrierPlan,
    n_trials: int,
    seed: int,
    duration_s: float = CAPTURE_DURATION_S,
    include_baseline: bool = True,
) -> List[GainSample]:
    """Legacy one-trial-per-iteration loop (reference implementation)."""
    if n_trials <= 0:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    cib = CIBTransmitter(plan)
    baseline = BlindSameFrequencyTransmitter(plan.n_antennas)
    reference = SingleAntennaTransmitter()
    samples: List[GainSample] = []
    for rng in spawn_rngs(seed, n_trials):
        channel = channel_factory(rng)
        realization = channel.realize(rng)
        reference_peak = reference.peak_amplitude(realization, rng, duration_s)
        cib_peak = cib.peak_amplitude(realization, rng, duration_s)
        if include_baseline:
            baseline_peak = baseline.peak_amplitude(realization, rng, duration_s)
        else:
            baseline_peak = reference_peak
        samples.append(
            GainSample(
                cib_gain=(cib_peak / reference_peak) ** 2,
                baseline_gain=(baseline_peak / reference_peak) ** 2,
            )
        )
    return samples


def power_up_probability_scalar(
    plan: CarrierPlan,
    channel_factory: Callable[[np.random.Generator], BlindChannel],
    medium_at_tag: Medium,
    eirp_per_branch_w: float,
    tag_spec: TagSpec,
    n_trials: int,
    seed: int,
) -> float:
    """Legacy per-trial power-up loop (reference implementation)."""
    threshold = tag_spec.minimum_input_voltage_v()
    successes = 0
    for rng in spawn_rngs(seed, n_trials):
        channel = channel_factory(rng)
        voltage = peak_input_voltage_v(
            plan, channel, medium_at_tag, eirp_per_branch_w, tag_spec, rng
        )
        if voltage >= threshold:
            successes += 1
    return successes / n_trials


def measure_strategy_gains_scalar(
    channel_factory: Callable[[np.random.Generator], BlindChannel],
    strategy_factory: Callable[[BlindChannel], TransmitterStrategy],
    n_trials: int,
    seed: int,
    duration_s: float = CAPTURE_DURATION_S,
) -> List[float]:
    """Legacy per-trial strategy loop (reference implementation)."""
    if n_trials <= 0:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    reference = SingleAntennaTransmitter()
    gains: List[float] = []
    for rng in spawn_rngs(seed, n_trials):
        channel = channel_factory(rng)
        strategy = strategy_factory(channel)
        realization = channel.realize(rng)
        reference_peak = reference.peak_amplitude(realization, rng, duration_s)
        peak = strategy.peak_amplitude(realization, rng, duration_s)
        gains.append((peak / reference_peak) ** 2)
    return gains


def peak_amplitudes_scalar(
    offsets_hz: np.ndarray,
    betas: np.ndarray,
    duration_s: float = 1.0,
    amplitudes: Optional[np.ndarray] = None,
    oversample: int = waveform.DEFAULT_OVERSAMPLE,
) -> np.ndarray:
    """One :func:`repro.core.waveform.peak_envelope` call per draw
    (reference for :func:`repro.runtime.engine.peak_amplitudes`)."""
    offsets = np.asarray(offsets_hz, dtype=float)
    betas = np.atleast_2d(np.asarray(betas, dtype=float))
    amps = None if amplitudes is None else np.asarray(amplitudes, dtype=float)
    out = np.empty(betas.shape[0])
    for index in range(betas.shape[0]):
        row_amps = amps if amps is None or amps.ndim == 1 else amps[index]
        out[index], _ = waveform.peak_envelope(
            offsets, betas[index], duration_s, row_amps, oversample
        )
    return out
