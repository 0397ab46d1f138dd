"""Spectral analysis of sample-level CIB transmissions.

CIB concentrates its carriers within a couple hundred hertz -- the whole
10-antenna ensemble occupies *one* regulatory channel, unlike wideband
power-delivery schemes. These helpers compute the periodogram of the
frames built by :mod:`tests.reference.beamformer` and the occupied
bandwidth, so the tests can verify:

* the unmodulated ensemble's occupied bandwidth equals the offset spread;
* a PIE-modulated frame's spectrum is the command's (tens of kHz), not
  widened by the CIB offsets;
* out-of-channel emissions stay far below the carrier.
"""

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Spectrum:
    """A one-sided-power view of a complex baseband capture.

    Attributes:
        frequencies_hz: FFT bin centers (baseband-relative, can be
            negative).
        power: Linear power per bin, normalized so the total equals the
            mean-square of the time-domain signal (Parseval).
    """

    frequencies_hz: np.ndarray
    power: np.ndarray

    def total_power(self) -> float:
        return float(np.sum(self.power))

    def occupied_bandwidth_hz(self, fraction: float = 0.99) -> float:
        """Width of the smallest symmetric-in-energy band holding
        ``fraction`` of the total power (the 99 % OBW of regulators)."""
        if not 0 < fraction < 1:
            raise ValueError(f"fraction must be in (0,1), got {fraction}")
        order = np.argsort(self.frequencies_hz)
        freqs = self.frequencies_hz[order]
        power = self.power[order]
        cumulative = np.cumsum(power)
        total = cumulative[-1]
        if total <= 0:
            return 0.0
        tail = (1.0 - fraction) / 2.0
        low_index = int(np.searchsorted(cumulative, tail * total))
        high_index = int(np.searchsorted(cumulative, (1.0 - tail) * total))
        high_index = min(high_index, freqs.size - 1)
        return float(freqs[high_index] - freqs[low_index])

    def peak_frequency_hz(self) -> float:
        return float(self.frequencies_hz[int(np.argmax(self.power))])

    def power_outside_hz(self, half_width_hz: float) -> float:
        """Fraction of power beyond +/- ``half_width_hz`` of baseband."""
        if half_width_hz < 0:
            raise ValueError("half width must be non-negative")
        mask = np.abs(self.frequencies_hz) > half_width_hz
        total = self.total_power()
        if total == 0:
            return 0.0
        return float(np.sum(self.power[mask]) / total)


def periodogram(samples: np.ndarray, sample_rate_hz: float) -> Spectrum:
    """Windowed periodogram of a complex baseband capture."""
    if sample_rate_hz <= 0:
        raise ConfigurationError("sample rate must be positive")
    data = np.asarray(samples, dtype=complex)
    if data.ndim != 1 or data.size < 8:
        raise ConfigurationError("need a 1-D capture of at least 8 samples")
    window = np.hanning(data.size)
    windowed = data * window
    spectrum = np.fft.fftshift(np.fft.fft(windowed))
    frequencies = np.fft.fftshift(
        np.fft.fftfreq(data.size, d=1.0 / sample_rate_hz)
    )
    # Parseval with the window's energy: sum(power) equals the windowed
    # capture's mean-square level, so band fractions are meaningful.
    window_energy = float(np.sum(window**2))
    power = np.abs(spectrum) ** 2 / (window_energy * data.size)
    return Spectrum(frequencies_hz=frequencies, power=power)


def ensemble_spectrum(
    streams: np.ndarray, sample_rate_hz: float
) -> Spectrum:
    """Spectrum of the summed multi-antenna transmission.

    The far-field superposition (unit channel) is the sum of the per-
    antenna streams, so this is what a spectrum analyzer in front of the
    array would show.
    """
    streams = np.asarray(streams, dtype=complex)
    if streams.ndim != 2:
        raise ConfigurationError("streams must be (n_antennas, n_samples)")
    return periodogram(np.sum(streams, axis=0), sample_rate_hz)
