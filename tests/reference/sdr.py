"""Sample-level SDR chain: the USRP array of the prototype (Section 5).

Oracle for the CIB envelope model. Every Monte-Carlo path in ``src/`` works
on the envelope ``|sum_i a_i exp(j(2 pi df_i t + beta_i))|``
(:mod:`repro.core.waveform`, :func:`repro.core.optimizer.sparse_envelope`);
this module builds the same signal the way the hardware does -- one PLL per
radio with an arbitrary initial phase, the offset soft-coded into the
baseband samples, a Rapp PA per branch -- so
``tests/core/test_envelope_oracle.py`` can check the envelope model against
an independent construction.

* :class:`Oscillator` -- a PLL locked to the shared reference: the
  frequency is pinned, the initial phase (theta_i of Eq. 5) is not.
* :class:`SoftOffsetSynthesizer` -- "USRPs cannot stably generate small
  frequency offsets, [so] we soft-coded these offsets directly into the
  complex numbers before sending them to the USRP."
* :class:`ReferenceClock` / :class:`SyncDomain` -- the Octoclock's 10 MHz
  reference and PPS trigger: timing coherence without phase coherence.
* :class:`TransmitChain` -- one USRP + HMC453 + MT-242025 branch.
* :class:`RadioArray` -- N synchronized transmit chains implementing a
  carrier plan.
"""

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.stats import dbm_to_watts, watts_to_dbm
from repro.constants import REFERENCE_CLOCK_HZ
from repro.core.plan import CarrierPlan
from repro.errors import ConfigurationError
from repro.rf.amplifier import PowerAmplifier
from repro.rf.antenna import MT242025_PANEL, Antenna


class Oscillator:
    """A PLL-derived carrier with random initial phase and phase noise.

    Args:
        frequency_hz: Nominal carrier frequency.
        rng: Source of the initial phase (and phase-noise innovations).
        phase_noise_std_rad_per_sqrt_s: Random-walk phase-noise intensity;
            the phase std after tau seconds is this value times sqrt(tau).
        frequency_error_hz: Static frequency error (e.g. reference drift
            expressed at RF). Zero when locked to a common reference.
    """

    def __init__(
        self,
        frequency_hz: float,
        rng: np.random.Generator,
        phase_noise_std_rad_per_sqrt_s: float = 0.0,
        frequency_error_hz: float = 0.0,
    ):
        if frequency_hz <= 0:
            raise ConfigurationError(
                f"frequency must be positive, got {frequency_hz}"
            )
        if phase_noise_std_rad_per_sqrt_s < 0:
            raise ConfigurationError("phase noise intensity must be >= 0")
        self.frequency_hz = float(frequency_hz)
        self.frequency_error_hz = float(frequency_error_hz)
        self._phase_noise_std = float(phase_noise_std_rad_per_sqrt_s)
        self._rng = rng
        self.initial_phase_rad = float(rng.uniform(0.0, 2.0 * math.pi))

    def relock(self) -> None:
        """Re-acquire lock: the initial phase is redrawn (a new theta_i)."""
        self.initial_phase_rad = float(self._rng.uniform(0.0, 2.0 * math.pi))

    def phase_at(self, t: np.ndarray) -> np.ndarray:
        """Instantaneous phase at times ``t`` (excluding phase noise)."""
        t = np.asarray(t, dtype=float)
        return (
            2.0 * math.pi * (self.frequency_hz + self.frequency_error_hz) * t
            + self.initial_phase_rad
        )

    def carrier(self, t: np.ndarray) -> np.ndarray:
        """Complex carrier samples ``exp(j phase(t))`` with phase noise."""
        t = np.asarray(t, dtype=float)
        phase = self.phase_at(t)
        if self._phase_noise_std > 0 and t.size > 1:
            dt = np.maximum(np.diff(t, prepend=t[0]), 0.0)
            innovations = self._rng.normal(
                0.0, self._phase_noise_std * np.sqrt(dt)
            )
            phase = phase + np.cumsum(innovations)
        return np.exp(1j * phase)


class SoftOffsetSynthesizer:
    """Baseband synthesis of a small frequency offset.

    Rotates baseband samples by ``exp(j 2 pi df n / fs)``, tracking the
    stream position so consecutive blocks continue the same rotation.
    """

    def __init__(self, offset_hz: float, sample_rate_hz: float):
        if sample_rate_hz <= 0:
            raise ConfigurationError(
                f"sample rate must be positive, got {sample_rate_hz}"
            )
        if abs(offset_hz) >= sample_rate_hz / 2.0:
            raise ConfigurationError(
                f"offset {offset_hz} Hz exceeds Nyquist for rate {sample_rate_hz}"
            )
        self.offset_hz = float(offset_hz)
        self.sample_rate_hz = float(sample_rate_hz)
        self.sample_index = 0

    def rotate(self, samples: np.ndarray) -> np.ndarray:
        """Apply the offset rotation to the next block of samples."""
        samples = np.asarray(samples)
        indices = self.sample_index + np.arange(samples.size)
        phase = 2.0 * math.pi * self.offset_hz * indices / self.sample_rate_hz
        self.sample_index += samples.size
        return samples * np.exp(1j * phase)

    def reset(self) -> None:
        """Rewind the stream position to zero."""
        self.sample_index = 0


@dataclass(frozen=True)
class ReferenceClock:
    """A distributed frequency reference.

    Attributes:
        frequency_hz: Nominal reference frequency (10 MHz Octoclock).
        fractional_error: Frequency error of the house reference itself;
            common to all radios, so it does not perturb their offsets.
    """

    frequency_hz: float = REFERENCE_CLOCK_HZ
    fractional_error: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigurationError(
                f"reference frequency must be positive, got {self.frequency_hz}"
            )

    def actual_frequency_hz(self) -> float:
        return self.frequency_hz * (1.0 + self.fractional_error)

    def rf_frequency_hz(self, nominal_rf_hz: float) -> float:
        """RF carrier produced from this reference for a nominal target."""
        if nominal_rf_hz <= 0:
            raise ValueError(f"RF frequency must be positive, got {nominal_rf_hz}")
        return nominal_rf_hz * (1.0 + self.fractional_error)


class SyncDomain:
    """A PPS-aligned trigger domain across multiple radios.

    Args:
        n_radios: Number of radios sharing the domain.
        trigger_jitter_std_s: Residual per-radio trigger error (~100 ns).
        reference: The shared frequency reference.
    """

    def __init__(
        self,
        n_radios: int,
        trigger_jitter_std_s: float = 100e-9,
        reference: ReferenceClock = ReferenceClock(),
    ):
        if n_radios < 1:
            raise ConfigurationError(f"need at least one radio, got {n_radios}")
        if trigger_jitter_std_s < 0:
            raise ConfigurationError(
                f"trigger jitter must be >= 0, got {trigger_jitter_std_s}"
            )
        self.n_radios = int(n_radios)
        self.trigger_jitter_std_s = float(trigger_jitter_std_s)
        self.reference = reference

    def trigger_offsets(self, rng: np.random.Generator) -> np.ndarray:
        """Per-radio trigger-time errors for one synchronized transmission."""
        if self.trigger_jitter_std_s == 0:
            return np.zeros(self.n_radios)
        return rng.normal(0.0, self.trigger_jitter_std_s, size=self.n_radios)

    def worst_case_skew_s(self, rng: np.random.Generator) -> float:
        """Spread between the earliest and latest radio in one trigger."""
        offsets = self.trigger_offsets(rng)
        return float(np.max(offsets) - np.min(offsets))

    def command_overlap_fraction(
        self, command_duration_s: float, rng: np.random.Generator
    ) -> float:
        """Fraction of a command during which all radios transmit together.

        The sensor decodes the common envelope, so the usable command
        portion is the overlap window.
        """
        if command_duration_s <= 0:
            raise ValueError(
                f"command duration must be positive, got {command_duration_s}"
            )
        skew = self.worst_case_skew_s(rng)
        return max(0.0, 1.0 - skew / command_duration_s)


class TransmitChain:
    """A single transmit branch: oscillator -> soft offset -> PA -> antenna.

    Args:
        carrier_frequency_hz: Synthesizer center frequency.
        rng: Source of oscillator randomness.
        offset_hz: Soft-coded baseband offset.
        tx_power_dbm: Requested output power (clamped by the PA model).
        sample_rate_hz: Baseband sample rate.
        amplifier: PA model; default HMC453-like.
        antenna: Radiating element; default the 7 dBi RHCP panel.
    """

    def __init__(
        self,
        carrier_frequency_hz: float,
        rng: np.random.Generator,
        offset_hz: float = 0.0,
        tx_power_dbm: float = 30.0,
        sample_rate_hz: float = 1e6,
        amplifier: Optional[PowerAmplifier] = None,
        antenna: Antenna = MT242025_PANEL,
    ):
        if carrier_frequency_hz <= 0:
            raise ConfigurationError("carrier frequency must be positive")
        self.carrier_frequency_hz = float(carrier_frequency_hz)
        self.offset_hz = float(offset_hz)
        self.tx_power_dbm = float(tx_power_dbm)
        self.sample_rate_hz = float(sample_rate_hz)
        self.amplifier = amplifier if amplifier is not None else PowerAmplifier()
        self.antenna = antenna
        self.oscillator = Oscillator(carrier_frequency_hz, rng)
        self.synthesizer = SoftOffsetSynthesizer(offset_hz, sample_rate_hz)

    @property
    def rf_frequency_hz(self) -> float:
        """Actual radiated carrier: synthesizer center plus soft offset."""
        return self.carrier_frequency_hz + self.offset_hz

    def output_amplitude_v(self) -> float:
        """Peak output amplitude for the requested power (50-ohm basis)."""
        power_watts = dbm_to_watts(self.tx_power_dbm)
        return math.sqrt(2.0 * power_watts * self.amplifier.load_ohms)

    def drive_amplitude_v(self) -> float:
        """PA input amplitude that gives the requested output amplitude."""
        return self.output_amplitude_v() / 10.0 ** (self.amplifier.gain_db / 20.0)

    def eirp_watts(self) -> float:
        """Effective isotropic radiated power of this branch."""
        out = self.amplifier.amplify(
            np.array([complex(self.drive_amplitude_v(), 0.0)])
        )
        power_watts = float(np.abs(out[0])) ** 2 / (2.0 * self.amplifier.load_ohms)
        return power_watts * self.antenna.gain_linear

    def eirp_dbm(self) -> float:
        return watts_to_dbm(self.eirp_watts())

    def transmit(self, envelope: np.ndarray) -> np.ndarray:
        """Baseband samples (volts at the antenna port) for an envelope in [0, 1].

        The samples carry the soft-coded offset rotation, the random
        oscillator phase and PA compression.
        """
        envelope = np.asarray(envelope, dtype=float)
        if envelope.ndim != 1 or envelope.size == 0:
            raise ValueError("envelope must be a non-empty 1-D array")
        if np.any(envelope < 0):
            raise ValueError("envelope amplitudes must be non-negative")
        baseband = (
            self.drive_amplitude_v()
            * envelope.astype(complex)
            * np.exp(1j * self.oscillator.initial_phase_rad)
        )
        return self.amplifier.amplify(self.synthesizer.rotate(baseband))


class RadioArray:
    """N synchronized radios implementing a carrier plan.

    Args:
        plan: The CIB carrier plan (one offset per radio).
        rng: Randomness source (oscillator phases, trigger jitter).
        tx_power_dbm: Per-branch transmit power.
        sample_rate_hz: Shared baseband rate.
        sync: Trigger domain; defaults to an Octoclock-like domain.
    """

    def __init__(
        self,
        plan: CarrierPlan,
        rng: np.random.Generator,
        tx_power_dbm: float = 30.0,
        sample_rate_hz: float = 1e6,
        sync: Optional[SyncDomain] = None,
    ):
        self.plan = plan
        self.sample_rate_hz = float(sample_rate_hz)
        self.sync = sync if sync is not None else SyncDomain(plan.n_antennas)
        if self.sync.n_radios != plan.n_antennas:
            raise ConfigurationError(
                f"sync domain has {self.sync.n_radios} radios but the plan "
                f"needs {plan.n_antennas}"
            )
        self._rng = rng
        self.chains: List[TransmitChain] = [
            TransmitChain(
                carrier_frequency_hz=plan.center_frequency_hz,
                rng=rng,
                offset_hz=float(offset),
                tx_power_dbm=tx_power_dbm,
                sample_rate_hz=sample_rate_hz,
            )
            for offset in plan.offsets_hz
        ]

    @property
    def n_radios(self) -> int:
        return len(self.chains)

    def pll_phases(self) -> np.ndarray:
        """Each radio's current oscillator initial phase theta_i."""
        return np.array(
            [chain.oscillator.initial_phase_rad for chain in self.chains]
        )

    def relock_all(self) -> None:
        """Re-acquire every PLL: fresh random initial phases (new trial)."""
        for chain in self.chains:
            chain.oscillator.relock()
            chain.synthesizer.reset()

    def eirp_per_branch_watts(self) -> np.ndarray:
        """EIRP of each branch after PA compression."""
        return np.array([chain.eirp_watts() for chain in self.chains])

    def synchronized_transmit(
        self, envelope: np.ndarray, apply_trigger_jitter: bool = True
    ) -> np.ndarray:
        """All radios transmit the same envelope at the same trigger.

        Returns:
            Complex array of shape (n_radios, n_samples). Trigger jitter is
            realized as a whole-sample circular shift of each radio's
            envelope; the sub-sample part is negligible at command
            bandwidths.
        """
        envelope = np.asarray(envelope, dtype=float)
        streams = np.empty((self.n_radios, envelope.size), dtype=complex)
        offsets_s = (
            self.sync.trigger_offsets(self._rng)
            if apply_trigger_jitter
            else np.zeros(self.n_radios)
        )
        for index, chain in enumerate(self.chains):
            shift = int(round(offsets_s[index] * self.sample_rate_hz))
            streams[index] = chain.transmit(
                np.roll(envelope, shift) if shift else envelope
            )
        return streams
