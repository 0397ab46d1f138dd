"""Per-antenna wireless channels under blind conditions.

The channel between transmit antenna i and the in-vivo sensor is a complex
gain ``h_i = a_i * exp(j phi_i)``. The magnitude ``a_i`` follows the Eq. 2
physics (1/r in air, boundary transmittance, exponential tissue decay,
multipath fading); the phase ``phi_i`` is what the beamformer cannot know.

Three phase models are provided:

* ``"random"`` -- fully blind: phases uniform in [0, 2 pi). This is the
  paper's operating regime (tissue inhomogeneity plus free-running PLLs).
* ``"geometric"`` -- free-space deterministic phases ``-2 pi f r / c`` plus
  the deterministic layered-tissue phase. A coherent beamsteerer could
  invert these, which is why beamsteering works in line-of-sight air.
* ``"perturbed"`` -- geometric phases plus a Gaussian perturbation whose
  standard deviation grows with the electrical depth of the tissue path.
  This reproduces footnote 5: beamsteering degrades to the blind baseline
  once the signal crosses unknown media.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.em.layers import LayeredPath
from repro.em.multipath import NO_MULTIPATH, MultipathProfile
from repro.errors import ConfigurationError

PHASE_MODES = ("random", "geometric", "perturbed")

#: Fractional uncertainty on tissue electrical length used by "perturbed".
TISSUE_PHASE_UNCERTAINTY = 0.25

#: Placement jitter of arc elements, as a fraction of the standoff.
ARC_JITTER_FRACTION = 0.02


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the per-antenna complex gains.

    Attributes:
        gains: Complex array of shape (n_antennas,). Units are 1/m: the
            field at the sensor from antenna i transmitting EIRP P_i is
            ``sqrt(60 * P_i) * gains[i]`` (peak volts per meter).
        frequency_hz: Carrier this realization was drawn at.
        orientation_gain: Scalar amplitude factor from sensor orientation
            (already folded into ``gains``; recorded for reporting).
    """

    gains: np.ndarray
    frequency_hz: float
    orientation_gain: float = 1.0

    @property
    def n_antennas(self) -> int:
        return int(self.gains.shape[0])

    def amplitude_sum(self) -> float:
        """Upper bound of the coherently-combined field, ``sum_i |h_i|``."""
        return float(np.sum(np.abs(self.gains)))

    def subset(self, n_antennas: int) -> "ChannelRealization":
        """Restrict the realization to the first ``n_antennas`` antennas."""
        if not 1 <= n_antennas <= self.n_antennas:
            raise ValueError(
                f"n_antennas must be in [1, {self.n_antennas}], got {n_antennas}"
            )
        return ChannelRealization(
            gains=self.gains[:n_antennas].copy(),
            frequency_hz=self.frequency_hz,
            orientation_gain=self.orientation_gain,
        )


@dataclass
class BlindChannel:
    """Channel model from an antenna array to one in-body sensor.

    Attributes:
        air_distances_m: Air-path length from each antenna to the body
            surface (array of shape (n_antennas,)).
        tissue_path: Layered tissue stack between surface and sensor;
            shared by all antennas (the array is far relative to the
            tissue depth, d << r per Sec. 2.2.1).
        frequency_hz: Default carrier frequency.
        phase_mode: One of ``"random"``, ``"geometric"``, ``"perturbed"``.
        multipath: Echo statistics applied independently per antenna.
        orientation_gain: Amplitude factor for sensor orientation mismatch.
    """

    air_distances_m: np.ndarray
    tissue_path: LayeredPath
    frequency_hz: float
    phase_mode: str = "random"
    multipath: MultipathProfile = field(default_factory=lambda: NO_MULTIPATH)
    orientation_gain: float = 1.0

    def __post_init__(self) -> None:
        self.air_distances_m = np.asarray(self.air_distances_m, dtype=float)
        if self.air_distances_m.ndim != 1 or self.air_distances_m.size == 0:
            raise ConfigurationError("air_distances_m must be a non-empty 1-D array")
        if np.any(self.air_distances_m <= 0):
            raise ConfigurationError("air distances must all be positive")
        if self.phase_mode not in PHASE_MODES:
            raise ConfigurationError(
                f"phase_mode must be one of {PHASE_MODES}, got {self.phase_mode!r}"
            )
        if self.frequency_hz <= 0:
            raise ConfigurationError(
                f"frequency must be positive, got {self.frequency_hz}"
            )
        if not 0.0 < self.orientation_gain <= 1.0:
            raise ConfigurationError(
                f"orientation_gain must be in (0, 1], got {self.orientation_gain}"
            )

    @property
    def n_antennas(self) -> int:
        return int(self.air_distances_m.size)

    # -- deterministic pieces -----------------------------------------------

    def amplitude_gains(
        self,
        frequency_hz: Optional[float] = None,
        air_distances_m: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Deterministic amplitude of each antenna's gain (1/m), over this
        channel's air distances or over ``air_distances_m`` (any shape)."""
        frequency = self.frequency_hz if frequency_hz is None else frequency_hz
        if air_distances_m is None:
            air_distances_m = self.air_distances_m
        tissue_amplitude = self.tissue_path.amplitude_factor(frequency)
        return tissue_amplitude * self.orientation_gain / air_distances_m

    def geometric_phases(self, frequency_hz: Optional[float] = None) -> np.ndarray:
        """Free-space plus deterministic tissue phase per antenna (rad)."""
        frequency = self.frequency_hz if frequency_hz is None else frequency_hz
        air_phase = (
            -2.0 * math.pi * frequency * self.air_distances_m / SPEED_OF_LIGHT
        )
        return air_phase + self.tissue_path.phase_rad(frequency)

    def _phase_perturbation_std(self, frequency_hz: float) -> float:
        """Phase uncertainty (rad) induced by unknown tissue composition."""
        electrical_length = 0.0
        for layer in self.tissue_path.layers:
            beta = layer.medium.phase_constant_rad_per_m(frequency_hz)
            electrical_length += beta * layer.thickness_m
        return TISSUE_PHASE_UNCERTAINTY * electrical_length

    # -- random draws ---------------------------------------------------------

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
            gains = random_phase_gains(amplitudes, rng.random(self.n_antennas))
        else:
            phases = self.geometric_phases(frequency)
            if self.phase_mode == "perturbed":
                std = self._phase_perturbation_std(frequency)
                phases = phases + rng.normal(0.0, std, size=self.n_antennas)
            gains = amplitudes.astype(complex) * np.exp(1j * phases)

        if self.multipath.mean_taps > 0:
            gains = gains * self.multipath.fading_factors(
                frequency, rng, self.n_antennas
            )

        return ChannelRealization(
            gains=gains,
            frequency_hz=frequency,
            orientation_gain=self.orientation_gain,
        )


def random_phase_gains(amplitudes: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Blind gains ``a * exp(j 2 pi u)`` of ``[0, 1)`` doubles ``u``, any
    shape. NumPy draws ``uniform(0, 2 pi)`` as ``0.0 + 2 pi * random()``,
    so these are that draw's phases, bit for bit."""
    return amplitudes.astype(complex) * np.exp(1j * ((2.0 * math.pi) * uniforms))


def arc_trial_gains(
    arc: BlindChannel, uniforms: np.ndarray, frequency_hz: Optional[float] = None
) -> np.ndarray:
    """Gains of many trials on a jittered arc, as array operations.

    ``arc`` is the unjittered arc (every air distance the standoff) with
    random phases and no multipath taps. A trial of it draws
    ``rng.random(n)`` jitter (:func:`arc_array_distances`), then
    ``rng.random(n)`` phases (:meth:`BlindChannel.realize`); this maps a
    ``(trials, 2 n)`` table of those doubles to their gains, bit for bit.
    """
    n = arc.n_antennas
    distances = arc_jitter_distances(arc.air_distances_m[0], uniforms[:, :n])
    amplitudes = arc.amplitude_gains(frequency_hz, distances)
    return random_phase_gains(amplitudes, uniforms[:, n:])


def arc_array_distances(
    standoff_m: float,
    n_antennas: int,
    jitter_fraction: float = ARC_JITTER_FRACTION,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Air distances for antennas arranged on an arc around the target.

    This is the Fig. 7 configuration: the elements surround the container
    at a common standoff, so each is (nearly) equidistant from the sensor.
    A small placement jitter keeps the model honest about hand-positioned
    hardware: one ``rng.random(n_antennas)`` draw through
    :func:`arc_jitter_distances`.
    """
    if standoff_m <= 0:
        raise ValueError(f"standoff must be positive, got {standoff_m}")
    if n_antennas < 1:
        raise ValueError(f"need at least one antenna, got {n_antennas}")
    if not 0 <= jitter_fraction < math.inf:
        raise ValueError(
            "jitter_fraction must be non-negative and finite, got "
            f"{jitter_fraction}"
        )
    if rng is None or jitter_fraction == 0:
        return np.full(n_antennas, standoff_m)
    return arc_jitter_distances(
        standoff_m, rng.random(n_antennas), jitter_fraction
    )


def arc_jitter_distances(
    standoff_m: float,
    uniforms: np.ndarray,
    jitter_fraction: float = ARC_JITTER_FRACTION,
) -> np.ndarray:
    """Jittered arc distances from ``[0, 1)`` doubles, one per element.

    ``uniforms`` may have any shape: :func:`arc_array_distances` passes one
    array's ``(n_antennas,)`` draw, a fleet shard its ``(tags, elements)``
    table. NumPy draws ``uniform(low, high)`` as ``low + (high - low) *
    random()``, so this is ``standoff * (1 + uniform(-f, f))`` of the same
    doubles, bit for bit.
    """
    low, high = -jitter_fraction, jitter_fraction
    return standoff_m * (1.0 + (low + (high - low) * uniforms))


def linear_array_distances(
    standoff_m: float, n_antennas: int, spacing_m: float = 0.15
) -> np.ndarray:
    """Air distances for a linear array facing the target.

    Antennas are spread along a line at ``standoff_m`` from the body
    surface; the distance of antenna i is the hypotenuse of the standoff
    and its lateral offset from the array center.
    """
    if standoff_m <= 0:
        raise ValueError(f"standoff must be positive, got {standoff_m}")
    if n_antennas < 1:
        raise ValueError(f"need at least one antenna, got {n_antennas}")
    if spacing_m < 0:
        raise ValueError(f"spacing must be non-negative, got {spacing_m}")
    offsets = (np.arange(n_antennas) - (n_antennas - 1) / 2.0) * spacing_m
    return np.sqrt(standoff_m**2 + offsets**2)
