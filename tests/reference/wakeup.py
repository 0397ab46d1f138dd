"""Per-trial reference of the wake-up latency sweep.

:func:`run_reference` walks every (depth, trial) placement through
:func:`trial_latency` one at a time; the batched
:func:`repro.experiments.wakeup_latency.run` (built on
:func:`repro.runtime.engine.wakeup_latency_chunk`) reproduces its rows bit
for bit, healthy or fault-injected.
"""

from typing import Optional

import numpy as np

from repro.analysis.mc import spawn_rngs
from repro.core import waveform
from repro.core.optimizer import envelope_series_fft
from repro.core.plan import paper_plan
from repro.em.media import WATER
from repro.experiments.wakeup_latency import (
    WakeupConfig,
    WakeupResult,
    _rows_from_latencies,
    _tank_channel,
)
from repro.runtime import engine as engine_mod
from repro.sensors.sensor import BatteryFreeSensor
from repro.sensors.tags import standard_tag_spec
from tests.reference.rectifier import evaluate_envelope


def _field_envelope(
    offsets_hz: np.ndarray,
    betas: np.ndarray,
    n_samples: int,
    dt: float,
    amplitudes: np.ndarray,
) -> np.ndarray:
    """Multi-period field envelope, via the sparse-spectrum FFT when exact.

    With integer offsets and a whole number of periods, every carrier
    lands on an integer bin of the ``n_samples``-point grid, so the
    envelope is one inverse FFT instead of an (N x samples) direct
    evaluation. Offsets that miss the bin grid fall back to the direct
    evaluation.
    """
    duration_s = n_samples * dt
    try:
        return envelope_series_fft(
            offsets_hz, betas, n_samples, duration_s, amplitudes
        )[0]
    except ValueError:
        t = np.arange(n_samples) * dt
        return waveform.envelope(offsets_hz, betas, t, amplitudes)


def trial_latency(
    config: WakeupConfig,
    depth_m: float,
    rng: np.random.Generator,
    injector=None,
    trial_index: int = 0,
) -> Optional[float]:
    """Wake-up latency of one placement (None when it never wakes).

    ``injector`` / ``trial_index`` apply the same per-trial fault
    realization the batched chunk applies (keyed by the absolute trial
    index).
    """
    plan = paper_plan().subset(config.n_antennas)
    channel = _tank_channel(
        rng, depth_m, config.n_antennas, plan.center_frequency_hz
    )
    realization = channel.realize(rng)
    gains = realization.gains
    betas = rng.uniform(0, 2 * np.pi, gains.size) + np.angle(gains)
    amplitudes = (
        np.sqrt(60.0 * config.eirp_per_branch_w) * np.abs(gains)
    )
    spec = standard_tag_spec()
    sensor = BatteryFreeSensor(
        spec, tuple(int(b) for b in rng.integers(0, 2, 96)), rng
    )
    dt = 1.0 / config.envelope_rate_hz
    n_samples = int(config.max_periods * config.envelope_rate_hz)
    offsets = plan.offsets_array()
    voltage_scale = None
    if injector is not None:
        perturbed = injector.perturb_trial(
            trial_index, offsets, betas, amplitudes
        )
        offsets = perturbed.offsets_hz
        betas = perturbed.betas
        amplitudes = perturbed.amplitudes
        voltage_scale = perturbed.voltage_scale
    field_envelope = _field_envelope(
        offsets, betas, n_samples, dt, amplitudes
    )
    # Field -> rectifier input voltage, via the medium-aware front end.
    scale = sensor.input_voltage_from_field(1.0, WATER, plan.center_frequency_hz)
    voltage_envelope = scale * field_envelope
    if voltage_scale is not None:
        voltage_envelope = voltage_envelope * voltage_scale
    result = evaluate_envelope(sensor.power_model, voltage_envelope, dt)
    return result.time_to_power_up_s


def run_reference(config: WakeupConfig) -> WakeupResult:
    """The whole sweep, one :func:`trial_latency` call per placement."""
    injector = engine_mod._fault_injector(config.fault_plan, config.seed)
    latencies = np.full(len(config.depths_m) * config.n_trials, np.nan)
    for depth_index, depth in enumerate(config.depths_m):
        rngs = spawn_rngs(config.seed + int(depth * 1e4), config.n_trials)
        for trial, rng in enumerate(rngs):
            value = trial_latency(
                config,
                depth,
                rng,
                injector=injector,
                trial_index=depth_index * config.n_trials + trial,
            )
            if value is not None:
                latencies[depth_index * config.n_trials + trial] = value
    return WakeupResult(rows=_rows_from_latencies(config, latencies))
