"""Per-call reference of one IVN link trial.

:func:`run_trial_reference` is :meth:`repro.reader.link.IvnLink.run_trial`
as it was before its per-link constants were hoisted and its draws were
merged: it recomputes the EIRP, the plan arrays and the query window every
trial, takes the envelope peak through :func:`cib_peak_reference` (which
validates the FFT bins and rebuilds the time grid on every call), draws
each antenna's multipath through :func:`fading_factor_reference` (one
scalar reflection-phase draw per tap) and captures through the per-period
loop :func:`tests.reference.kernels.capture_response_scalar`. The
production trial returns the same :class:`LinkTrialResult` bit for bit and
leaves the generator in the same state.
"""

import cmath
import math
from typing import Optional, Tuple

import numpy as np

from repro.core import waveform as waveform_mod
from repro.core.optimizer import envelope_series_fft
from repro.em.channel import BlindChannel, ChannelRealization
from repro.em.media import Medium
from repro.em.multipath import MultipathProfile
from repro.errors import ConfigurationError
from repro.reader.link import DEFAULT_EPC_BITS, IvnLink, LinkTrialResult
from repro.sensors.sensor import BatteryFreeSensor
from tests.reference.kernels import capture_response_scalar


def fading_factor_reference(
    profile: MultipathProfile, frequency_hz: float, rng: np.random.Generator
) -> complex:
    """Complex gain of direct path plus echoes at ``frequency_hz``.

    The direct path has unit amplitude and zero phase (its deterministic
    phase is tracked elsewhere); each echo contributes
    ``a_k * exp(-j (2 pi f tau_k + psi_k))`` with a random reflection
    phase psi_k.
    """
    amplitudes, delays = profile.sample_taps(rng)
    total = complex(1.0, 0.0)
    # Python floats: the same IEEE double arithmetic as numpy scalars,
    # without the per-operation scalar overhead.
    for amplitude, delay in zip(amplitudes.tolist(), delays.tolist()):
        reflection_phase = rng.uniform(0.0, 2.0 * np.pi)
        total += amplitude * cmath.exp(
            -1j * (2.0 * np.pi * frequency_hz * delay + reflection_phase)
        )
    return total


class ReferenceChannel(BlindChannel):
    """A :class:`BlindChannel` whose draws go through the reference loops."""

    @classmethod
    def of(cls, channel: BlindChannel) -> "ReferenceChannel":
        return cls(
            air_distances_m=channel.air_distances_m,
            tissue_path=channel.tissue_path,
            frequency_hz=channel.frequency_hz,
            phase_mode=channel.phase_mode,
            multipath=channel.multipath,
            orientation_gain=channel.orientation_gain,
        )

    def realize(
        self,
        rng: np.random.Generator,
        frequency_hz: Optional[float] = None,
    ) -> ChannelRealization:
        """Draw one channel realization.

        Every call resamples the unknown quantities: blind phases (or the
        perturbation, depending on ``phase_mode``) and the multipath taps.
        """
        frequency = self.frequency_hz if frequency_hz is None else frequency_hz
        amplitudes = self.amplitude_gains(frequency)

        if self.phase_mode == "random":
            phases = rng.uniform(0.0, 2.0 * math.pi, size=self.n_antennas)
        elif self.phase_mode == "geometric":
            phases = self.geometric_phases(frequency)
        else:  # perturbed
            std = self._phase_perturbation_std(frequency)
            phases = self.geometric_phases(frequency) + rng.normal(
                0.0, std, size=self.n_antennas
            )

        gains = amplitudes.astype(complex) * np.exp(1j * phases)

        if self.multipath.mean_taps > 0:
            fading = np.array(
                [
                    fading_factor_reference(self.multipath, frequency, rng)
                    for _ in range(self.n_antennas)
                ]
            )
            gains = gains * fading

        return ChannelRealization(
            gains=gains,
            frequency_hz=frequency,
            orientation_gain=self.orientation_gain,
        )


def cib_peak_reference(
    offsets_hz: np.ndarray,
    betas: np.ndarray,
    amplitudes: np.ndarray,
) -> Tuple[float, float]:
    """Peak field envelope over one CIB period and the time it occurs.

    Returns:
        ``(peak_value, t_peak)``.
    """
    t = waveform_mod.time_grid(offsets_hz, 1.0)
    try:
        y = envelope_series_fft(offsets_hz, betas, t.size, 1.0, amplitudes)[0]
    except ValueError:
        return waveform_mod.peak_envelope(
            offsets_hz, betas, duration_s=1.0, amplitudes=amplitudes
        )
    index = int(np.argmax(y))
    return float(y[index]), float(t[index])


def run_trial_reference(
    link: IvnLink,
    channel: BlindChannel,
    medium_at_tag: Medium,
    rng: np.random.Generator,
    epc_bits: Optional[Tuple[int, ...]] = None,
    faults=None,
    trial_index: int = 0,
) -> LinkTrialResult:
    """``link.run_trial(channel, medium_at_tag, rng, ...)``, per call."""
    channel = ReferenceChannel.of(channel)
    if epc_bits is None:
        epc_bits = DEFAULT_EPC_BITS
    sensor = BatteryFreeSensor(link.tag_spec, epc_bits, rng)

    # 1. CIB envelope at the sensor. --------------------------------------
    realization = channel.realize(rng, link.plan.center_frequency_hz)
    gains = realization.gains[: link.plan.n_antennas]
    if gains.size < link.plan.n_antennas:
        raise ConfigurationError(
            f"channel provides {gains.size} antennas, plan needs "
            f"{link.plan.n_antennas}"
        )
    eirp = link.eirp_per_branch_w()
    field_scale = math.sqrt(60.0 * eirp)
    oscillator_phases = rng.uniform(0.0, 2.0 * math.pi, size=gains.size)
    betas = oscillator_phases + np.angle(gains)
    amplitudes = field_scale * np.abs(gains) * link.plan.amplitudes_array()

    offsets = link.plan.offsets_array()
    voltage_scale = 1.0
    if faults is not None and faults.active:
        perturbed = faults.perturb_trial(
            trial_index, offsets, betas, amplitudes
        )
        offsets = perturbed.offsets_hz
        betas = perturbed.betas
        amplitudes = perturbed.amplitudes
        voltage_scale = perturbed.voltage_scale
    peak_field, t_peak = cib_peak_reference(offsets, betas, amplitudes)
    peak_vs = voltage_scale * sensor.input_voltage_from_field(
        peak_field, medium_at_tag, link.plan.center_frequency_hz
    )

    # 2. Power-up decision. -------------------------------------------------
    powered = sensor.try_power_up(peak_vs)
    if not powered:
        return LinkTrialResult(
            powered=False,
            peak_field_v_per_m=peak_field,
            peak_input_voltage_v=peak_vs,
            notes=(
                f"peak V_s {peak_vs:.3f} V below minimum "
                f"{link.tag_spec.minimum_input_voltage_v():.3f} V"
            ),
        )

    # 3. Query decode at the envelope peak. ---------------------------------
    command_envelope = link._command_envelope
    n_samples = command_envelope.size
    dt = 1.0 / link.reader.sample_rate_hz
    window = t_peak + (np.arange(n_samples) - n_samples / 2.0) * dt
    carrier_envelope = waveform_mod.envelope(
        offsets, betas, window, amplitudes
    )
    if faults is not None and faults.active:
        # Downlink corruption: the field the sensor envelope-detects,
        # not the reference command it correlates against.
        carrier_envelope = faults.corrupt_envelope(
            trial_index, carrier_envelope
        )
    outcome = sensor.decode_query_envelope(
        carrier_envelope, command_envelope, link.reader.sample_rate_hz
    )
    if not outcome.decoded:
        return LinkTrialResult(
            powered=True,
            peak_field_v_per_m=peak_field,
            peak_input_voltage_v=peak_vs,
            query_decoded=False,
            query_fluctuation=outcome.fluctuation,
            notes=f"query decode failed: {outcome.reason}",
        )

    # 4. Gen2 reply. -----------------------------------------------------------
    reply = sensor.respond_to_query(link.query)
    if reply is None:
        return LinkTrialResult(
            powered=True,
            peak_field_v_per_m=peak_field,
            peak_input_voltage_v=peak_vs,
            query_decoded=True,
            query_fluctuation=outcome.fluctuation,
            reply_sent=False,
            notes="tag FSM produced no reply (slot != 0?)",
        )

    # 5. Backscatter capture and decode at the reader. ---------------------------
    samples_per_chip = sensor.samples_per_chip(link.reader.sample_rate_hz)
    response = sensor.backscatter_waveform(reply, samples_per_chip)
    amplitude = link.reader.backscatter_amplitude_v(
        tag_channel=channel,
        tag_aperture_m2=link._tag_aperture_m2,
        modulation_depth=link.tag_spec.modulation_depth,
        rng=rng,
    )
    capture = capture_response_scalar(
        link.reader,
        response_waveform=response,
        amplitude_v=amplitude,
        n_periods=link.n_averaging_periods,
        rng=rng,
        jamming=link._jamming,
        beamformer_frequency_hz=link.plan.center_frequency_hz,
    )
    decode = link.reader.decode(
        capture,
        n_bits=len(reply.bits),
        samples_per_chip=samples_per_chip,
        faults=faults,
        trial_index=trial_index,
    )
    return LinkTrialResult(
        powered=True,
        peak_field_v_per_m=peak_field,
        peak_input_voltage_v=peak_vs,
        query_decoded=True,
        query_fluctuation=outcome.fluctuation,
        reply_sent=True,
        decode=decode,
        correlation=decode.correlation,
        success=decode.success and decode.bits == tuple(reply.bits),
        notes="" if decode.success else "reader correlation below threshold",
        capture_waveform=capture.waveform,
    )
