"""Receive chain: filtering, noise, and quantization.

The out-of-band reader's receive path (Section 5b) is: antenna -> high-
rejection SAW filter (to knock down the CIB beamformer's self-jamming) ->
LNA (sets the noise figure) -> ADC. Each stage is modeled explicitly so the
jamming analysis in :mod:`repro.reader.jamming` has real knobs to turn.
"""

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import BOLTZMANN_CONSTANT, ROOM_TEMPERATURE_K
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SawFilter:
    """A band-select surface-acoustic-wave filter.

    Attributes:
        center_hz: Passband center.
        bandwidth_hz: Passband width (signals inside pass unattenuated).
        rejection_db: Stopband rejection applied outside the passband.
        insertion_loss_db: Loss inside the passband.
    """

    center_hz: float
    bandwidth_hz: float = 10e6
    rejection_db: float = 50.0
    insertion_loss_db: float = 2.0

    def __post_init__(self) -> None:
        if self.center_hz <= 0 or self.bandwidth_hz <= 0:
            raise ConfigurationError("filter center and bandwidth must be positive")
        if self.rejection_db < 0 or self.insertion_loss_db < 0:
            raise ConfigurationError("filter losses must be non-negative")

    def amplitude_response(self, frequency_hz: float) -> float:
        """Amplitude factor applied to a carrier at ``frequency_hz``."""
        in_band = abs(frequency_hz - self.center_hz) <= self.bandwidth_hz / 2.0
        loss_db = self.insertion_loss_db if in_band else (
            self.insertion_loss_db + self.rejection_db
        )
        return 10.0 ** (-loss_db / 20.0)

    def power_rejection(self, frequency_hz: float) -> float:
        """Power factor at ``frequency_hz`` (square of the amplitude one)."""
        return self.amplitude_response(frequency_hz) ** 2


def thermal_noise_power_watts(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Noise power referred to the receiver input, ``k T B F``."""
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    if noise_figure_db < 0:
        raise ValueError(f"noise figure must be >= 0 dB, got {noise_figure_db}")
    factor = 10.0 ** (noise_figure_db / 10.0)
    return BOLTZMANN_CONSTANT * ROOM_TEMPERATURE_K * bandwidth_hz * factor


class AnalogToDigitalConverter:
    """Uniform quantizer with clipping (the USRP's 14-bit ADC)."""

    def __init__(self, n_bits: int = 14, full_scale: float = 1.0):
        if n_bits < 1:
            raise ConfigurationError(f"need at least 1 bit, got {n_bits}")
        if full_scale <= 0:
            raise ConfigurationError(f"full scale must be positive, got {full_scale}")
        self.n_bits = int(n_bits)
        self.full_scale = float(full_scale)
        self._levels = 2 ** (n_bits - 1)

    @property
    def step(self) -> float:
        """Quantization step size."""
        return self.full_scale / self._levels

    def quantize_real(self, samples: np.ndarray) -> np.ndarray:
        """Quantize one real component, with clipping."""
        codes = np.clip(
            np.round(samples / self.step), -self._levels, self._levels - 1
        )
        return codes * self.step


class ReceiveChain:
    """SAW filter -> LNA noise -> ADC, at a fixed tuned frequency.

    The configuration :func:`repro.kernels.capture_batch` and
    :func:`repro.kernels.capture_block` run their captures through.

    Args:
        tuned_frequency_hz: Carrier the chain is tuned to; the SAW filter
            is centered here.
        sample_rate_hz: Complex baseband sample rate (also the noise
            bandwidth).
        noise_figure_db: Cascade noise figure.
        saw: The band-select filter; defaults to one centered on the tuned
            frequency.
        adc: Quantizer; ``None`` disables quantization.
        reference_ohms: Impedance tying sample amplitude to power.
    """

    def __init__(
        self,
        tuned_frequency_hz: float,
        sample_rate_hz: float = 1e6,
        noise_figure_db: float = 7.0,
        saw: SawFilter = None,
        adc: AnalogToDigitalConverter = None,
        reference_ohms: float = 50.0,
    ):
        if tuned_frequency_hz <= 0 or sample_rate_hz <= 0:
            raise ConfigurationError("frequency and sample rate must be positive")
        self.tuned_frequency_hz = float(tuned_frequency_hz)
        self.sample_rate_hz = float(sample_rate_hz)
        self.noise_figure_db = float(noise_figure_db)
        self.saw = saw if saw is not None else SawFilter(center_hz=tuned_frequency_hz)
        self.adc = adc
        self.reference_ohms = float(reference_ohms)

    def noise_std(self) -> float:
        """Per-complex-sample noise standard deviation (volts)."""
        noise_power = thermal_noise_power_watts(
            self.sample_rate_hz, self.noise_figure_db
        )
        # P = V_rms^2 / R across I+Q.
        return math.sqrt(noise_power * self.reference_ohms)
