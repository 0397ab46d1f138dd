"""Adaptive center-frequency hopping (the Section 3.7 extension).

"In some scenarios, all the frequencies may experience multipath fading.
While CIB can still provide the same gain in these scenarios, the overall
power delivered will be lower. An extension of this design may adaptively
hop the center frequency to a different band to improve performance."

:class:`AdaptiveHopper` implements that extension: it rotates the CIB
center carrier through the candidate UHF channels, scores each band by the
sensor response it elicits (or, absent a response, by the measured
delivered power), and settles on the best band while occasionally
re-probing the others -- an epsilon-greedy policy that tracks slow scene
changes without ever needing channel state.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plan import CarrierPlan
from repro.errors import ConfigurationError

#: FCC 902-928 MHz hopping channels the prototype could legally occupy,
#: thinned to a representative set of candidate centers.
DEFAULT_BANDS_HZ = tuple(902.75e6 + 2.0e6 * k for k in range(13))


@dataclass
class BandStatistics:
    """Running observations for one candidate band."""

    n_probes: int = 0
    mean_reward: float = 0.0

    def update(self, reward: float) -> None:
        self.n_probes += 1
        self.mean_reward += (reward - self.mean_reward) / self.n_probes


class AdaptiveHopper:
    """Epsilon-greedy band selection for the CIB center carrier.

    Args:
        plan: The offset plan; hops move ``center_frequency_hz`` only, so
            every visited band reuses the same optimized offsets (the
            Eq. 10 solution depends only on offsets, not the center).
        bands_hz: Candidate center carriers.
        epsilon: Exploration probability per decision.
        rng: Randomness for exploration.
        minimum_probes: Each band is probed at least this often before the
            greedy phase begins.
    """

    def __init__(
        self,
        plan: CarrierPlan,
        bands_hz: Sequence[float] = DEFAULT_BANDS_HZ,
        epsilon: float = 0.1,
        rng: Optional[np.random.Generator] = None,
        minimum_probes: int = 1,
    ):
        if not bands_hz:
            raise ConfigurationError("need at least one candidate band")
        if any(f <= 0 for f in bands_hz):
            raise ConfigurationError("bands must be positive frequencies")
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must be in [0,1], got {epsilon}")
        if minimum_probes < 1:
            raise ConfigurationError("minimum_probes must be >= 1")
        self.plan = plan
        self.bands_hz: Tuple[float, ...] = tuple(float(f) for f in bands_hz)
        self.epsilon = float(epsilon)
        self.minimum_probes = int(minimum_probes)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.statistics: Dict[float, BandStatistics] = {
            band: BandStatistics() for band in self.bands_hz
        }
        self._current_band = self.bands_hz[0]
        self.history: List[Tuple[float, float]] = []

    @property
    def current_band_hz(self) -> float:
        return self._current_band

    def current_plan(self) -> CarrierPlan:
        """The CIB plan re-centered on the currently selected band."""
        return CarrierPlan(
            center_frequency_hz=self._current_band,
            offsets_hz=self.plan.offsets_hz,
            amplitudes=self.plan.amplitudes,
        )

    def _under_probed(self) -> List[float]:
        return [
            band
            for band in self.bands_hz
            if self.statistics[band].n_probes < self.minimum_probes
        ]

    def next_band(self) -> float:
        """Choose the band for the next CIB period."""
        under_probed = self._under_probed()
        if under_probed:
            self._current_band = under_probed[0]
        elif self._rng.uniform() < self.epsilon:
            self._current_band = float(self._rng.choice(self.bands_hz))
        else:
            self._current_band = max(
                self.bands_hz, key=lambda band: self.statistics[band].mean_reward
            )
        return self._current_band

    def observe(self, reward: float) -> None:
        """Report the delivered-power (or response-SNR) reward of the
        period just transmitted on :attr:`current_band_hz`."""
        if reward < 0:
            raise ValueError(f"reward must be non-negative, got {reward}")
        self.statistics[self._current_band].update(reward)
        self.history.append((self._current_band, float(reward)))

    def best_band(self) -> float:
        """The band with the highest observed mean reward so far."""
        return max(
            self.bands_hz, key=lambda band: self.statistics[band].mean_reward
        )

    def run(
        self,
        reward_fn,
        n_periods: int,
    ) -> float:
        """Drive the hopper for ``n_periods`` against a reward callable.

        Args:
            reward_fn: Called with the chosen band frequency; returns the
                non-negative reward of transmitting a period there (e.g.
                ``FrequencySelectiveChannel.band_power_gain``).

        Returns:
            Mean reward over the run (the quantity hopping improves).
        """
        if n_periods < 1:
            raise ValueError(f"n_periods must be positive, got {n_periods}")
        total = 0.0
        for _ in range(n_periods):
            band = self.next_band()
            reward = float(reward_fn(band))
            self.observe(reward)
            total += reward
        return total / n_periods


def static_mean_reward(reward_fn, band_hz: float, n_periods: int) -> float:
    """Mean reward of never hopping (the comparison baseline)."""
    if n_periods < 1:
        raise ValueError(f"n_periods must be positive, got {n_periods}")
    return float(np.mean([reward_fn(band_hz) for _ in range(n_periods)]))
