"""Per-trial loops of the Section 6 measurement functions.

References for :func:`repro.experiments.common.measure_gain_trials`,
:func:`~repro.experiments.common.power_up_probability` and
:func:`~repro.experiments.common.measure_strategy_gains`: the batched
engine's ``"direct"`` tier reproduces them bit for bit at fixed seeds.
"""

from typing import Callable, List

import numpy as np

from repro.analysis.mc import spawn_rngs
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
