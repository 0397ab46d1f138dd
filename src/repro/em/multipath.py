"""Multipath due to reflections off organs and the environment.

Section 3.1 notes that in-vivo signals "may also experience multipath as
they reflect off different organs". Within CIB's sub-200 Hz frequency
spread every carrier sees the same multipath (frequency-flat fading), so a
single complex tap sum per antenna captures its effect. The profile below
draws a sparse set of delayed, attenuated echoes and sums them with the
direct path; :meth:`MultipathProfile.fading_factors` does so for a whole
array in one loop, drawing each antenna's taps (count, amplitudes, then
delays and reflection phases in one uniform call) in the order one
:meth:`~MultipathProfile.fading_factor` call per antenna would.
"""

import cmath
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MultipathProfile:
    """Statistical description of the echo environment.

    Attributes:
        mean_taps: Average number of reflected paths (Poisson distributed).
        tap_amplitude: Mean echo amplitude relative to the direct path;
            each echo's amplitude is exponentially distributed around it.
        max_excess_delay_s: Echo delays are uniform in [0, max_excess_delay].
    """

    mean_taps: float = 2.0
    tap_amplitude: float = 0.3
    max_excess_delay_s: float = 50e-9

    def __post_init__(self) -> None:
        if self.mean_taps < 0:
            raise ConfigurationError(f"mean_taps must be >= 0, got {self.mean_taps}")
        if not 0.0 <= self.tap_amplitude < 1.0:
            raise ConfigurationError(
                f"tap_amplitude must be in [0, 1), got {self.tap_amplitude}"
            )
        if self.max_excess_delay_s < 0:
            raise ConfigurationError(
                f"max_excess_delay_s must be >= 0, got {self.max_excess_delay_s}"
            )

    def sample_taps(
        self, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``(amplitudes, delays_s)`` of the reflected paths."""
        n_taps = int(rng.poisson(self.mean_taps))
        if n_taps == 0:
            return np.empty(0), np.empty(0)
        amplitudes = rng.exponential(self.tap_amplitude, size=n_taps)
        # Echoes cannot be stronger than the direct path in this model.
        amplitudes = np.minimum(amplitudes, 0.95)
        delays = rng.uniform(0.0, self.max_excess_delay_s, size=n_taps)
        return amplitudes, delays

    def fading_factor(
        self, frequency_hz: float, rng: np.random.Generator
    ) -> complex:
        """Complex gain of direct path plus echoes at ``frequency_hz``.

        The direct path has unit amplitude and zero phase (its deterministic
        phase is tracked elsewhere); each echo contributes
        ``a_k * exp(-j (2 pi f tau_k + psi_k))`` with a random reflection
        phase psi_k. One antenna's :meth:`fading_factors`.
        """
        return complex(self.fading_factors(frequency_hz, rng, 1)[0])

    def fading_factors(
        self, frequency_hz: float, rng: np.random.Generator, n_antennas: int
    ) -> np.ndarray:
        """Independent :meth:`fading_factor` draws for ``n_antennas``.

        Antenna by antenna the generator yields the :meth:`sample_taps`
        draws and then one reflection phase per tap, and the echoes are
        summed left to right onto the direct path. The two uniform draws
        of an antenna, ``n_taps`` delays then ``n_taps`` phases, are taken
        as one ``random(2 * n_taps)`` call and scaled here:
        ``uniform(0.0, high)`` is ``0.0 + high * random()`` in NumPy, which
        is exactly ``high * random()``, so the doubles are the same without
        the per-call cost of ``uniform``.
        """
        factors = np.empty(n_antennas, dtype=complex)
        poisson, exponential, random = rng.poisson, rng.exponential, rng.random
        max_delay = self.max_excess_delay_s
        two_pi = 2.0 * np.pi
        omega = two_pi * frequency_hz
        for antenna in range(n_antennas):
            total = complex(1.0, 0.0)
            n_taps = int(poisson(self.mean_taps))
            if n_taps:
                # Python floats: the same IEEE double arithmetic as numpy
                # scalars, without the per-operation scalar overhead.
                amplitudes = exponential(self.tap_amplitude, size=n_taps).tolist()
                uniforms = random(2 * n_taps).tolist()
                for tap in range(n_taps):
                    delay = max_delay * uniforms[tap]
                    reflection_phase = two_pi * uniforms[n_taps + tap]
                    # Echoes cannot be stronger than the direct path.
                    total += min(amplitudes[tap], 0.95) * cmath.exp(
                        -1j * (omega * delay + reflection_phase)
                    )
            factors[antenna] = total
        return factors


NO_MULTIPATH = MultipathProfile(mean_taps=0.0, tap_amplitude=0.0, max_excess_delay_s=0.0)
"""A profile with no echoes (pure line-of-sight)."""

INDOOR_MULTIPATH = MultipathProfile(
    mean_taps=3.0, tap_amplitude=0.25, max_excess_delay_s=100e-9
)
"""Typical indoor lab environment (Fig. 8 long-range setup)."""

IN_BODY_MULTIPATH = MultipathProfile(
    mean_taps=2.0, tap_amplitude=0.3, max_excess_delay_s=5e-9
)
"""Short-delay organ reflections inside the body."""
