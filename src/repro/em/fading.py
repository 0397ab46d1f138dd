"""Frequency-selective fading across bands (Section 3.7, robustness).

CIB's formulation assumes all carriers sit inside the channel's coherence
bandwidth -- guaranteed by the < 200 Hz offset spread. But the *band* the
center carrier occupies can fade as a whole: multipath with delay spread
tau makes the channel vary over frequencies ~1/tau apart. The paper
suggests "adaptively hop[ping] the center frequency to a different band to
improve performance"; this module models the per-band fading such a hopper
must react to.
"""

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DelaySpreadProfile:
    """A wide-sense multipath profile with a resolvable delay spread.

    Attributes:
        n_taps: Number of echo paths (beyond the direct one).
        rms_delay_spread_s: RMS excess delay; the coherence bandwidth is
            roughly ``1 / (5 * tau_rms)``.
        mean_tap_amplitude: Average echo amplitude relative to the direct
            path.
    """

    n_taps: int = 4
    rms_delay_spread_s: float = 30e-9
    mean_tap_amplitude: float = 0.5

    def __post_init__(self) -> None:
        if self.n_taps < 0:
            raise ConfigurationError(f"n_taps must be >= 0, got {self.n_taps}")
        if self.rms_delay_spread_s <= 0:
            raise ConfigurationError(
                f"delay spread must be positive, got {self.rms_delay_spread_s}"
            )
        if not 0 <= self.mean_tap_amplitude < 1:
            raise ConfigurationError(
                f"tap amplitude must be in [0, 1), got {self.mean_tap_amplitude}"
            )

    @property
    def coherence_bandwidth_hz(self) -> float:
        """The ~50%-correlation coherence bandwidth, 1/(5 tau_rms)."""
        return 1.0 / (5.0 * self.rms_delay_spread_s)


class FrequencySelectiveChannel:
    """Static frequency-selective fading over a set of candidate bands.

    One draw fixes the tap delays/amplitudes/phases; the complex fading
    factor is then a deterministic function of frequency, flat within
    CIB's sub-kHz spread but varying across bands separated by more than
    the coherence bandwidth. Each transmit antenna gets independent taps.

    Args:
        profile: Delay-spread statistics.
        n_antennas: Independent fading realizations, one per antenna.
        rng: Randomness for the tap draw (one-time; the channel is then
            frozen until :meth:`redraw`).
    """

    def __init__(
        self,
        profile: DelaySpreadProfile,
        n_antennas: int,
        rng: np.random.Generator,
    ):
        if n_antennas < 1:
            raise ConfigurationError(f"need >= 1 antenna, got {n_antennas}")
        self.profile = profile
        self.n_antennas = int(n_antennas)
        self._rng = rng
        self.redraw()

    def redraw(self) -> None:
        """Draw a new static fading realization (e.g. the scene changed)."""
        profile = self.profile
        shape = (self.n_antennas, profile.n_taps)
        self._amplitudes = np.minimum(
            self._rng.exponential(profile.mean_tap_amplitude, size=shape), 0.95
        )
        self._delays = self._rng.exponential(
            profile.rms_delay_spread_s, size=shape
        )
        self._phases = self._rng.uniform(0.0, 2.0 * math.pi, size=shape)

    def fading_factors(self, frequency_hz: float) -> np.ndarray:
        """Complex per-antenna fading at ``frequency_hz`` (direct path = 1)."""
        if frequency_hz <= 0:
            raise ValueError(f"frequency must be positive, got {frequency_hz}")
        phase = (
            -2.0 * math.pi * frequency_hz * self._delays - self._phases
        )
        echoes = np.sum(self._amplitudes * np.exp(1j * phase), axis=1)
        return 1.0 + echoes

    def band_power_gain(self, frequency_hz: float) -> float:
        """Mean power fading across the array at one band, ``mean |f_i|^2``.

        This is the quantity a hopper can sense: how much of the radiated
        power actually survives the band's multipath.
        """
        factors = self.fading_factors(frequency_hz)
        return float(np.mean(np.abs(factors) ** 2))

    def band_survey(self, frequencies_hz: Sequence[float]) -> Dict[float, float]:
        """Power fading of every candidate band."""
        return {f: self.band_power_gain(f) for f in frequencies_hz}

    def is_flat_within(self, frequency_hz: float, span_hz: float) -> bool:
        """Check CIB's flat-fading assumption over a span (Sec. 3.7).

        True when the edge-to-edge fading variation across ``span_hz``
        stays within 1 %, which holds comfortably for sub-kHz CIB spreads.
        """
        low = self.fading_factors(frequency_hz - span_hz / 2.0)
        high = self.fading_factors(frequency_hz + span_hz / 2.0)
        variation = np.abs(np.abs(high) - np.abs(low)) / np.maximum(
            np.abs(low), 1e-12
        )
        return bool(np.all(variation < 0.01))
