"""Carrier plans: the frequency assignment of a CIB beamformer.

A :class:`CarrierPlan` records the center carrier, the per-antenna
frequency offsets (the delta-f of Section 3.6), and optional per-antenna
amplitudes. The paper's published 10-antenna plan is available via
:func:`paper_plan`.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.constants import CIB_CENTER_FREQUENCY_HZ, PAPER_DELTA_F_HZ
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CarrierPlan:
    """Frequency assignment for an N-antenna CIB beamformer.

    Attributes:
        center_frequency_hz: The carrier f1 all offsets are relative to.
        offsets_hz: Per-antenna frequency offsets delta-f_i. By convention
            the first offset is zero (the reference antenna).
        amplitudes: Optional per-antenna amplitude weights; defaults to
            all-ones. Use ``equal_power_amplitudes`` for the 1/sqrt(N)
            total-power-conserving variant of Sec. 3.4.
    """

    center_frequency_hz: float = CIB_CENTER_FREQUENCY_HZ
    offsets_hz: Tuple[float, ...] = PAPER_DELTA_F_HZ
    amplitudes: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.center_frequency_hz <= 0:
            raise ConfigurationError(
                f"center frequency must be positive, got {self.center_frequency_hz}"
            )
        if len(self.offsets_hz) == 0:
            raise ConfigurationError("a carrier plan needs at least one antenna")
        if any(offset < 0 for offset in self.offsets_hz):
            raise ConfigurationError(
                f"offsets must be non-negative, got {self.offsets_hz}"
            )
        if len(set(self.offsets_hz)) != len(self.offsets_hz):
            raise ConfigurationError(
                f"offsets must be distinct, got {self.offsets_hz}"
            )
        if self.amplitudes is not None:
            if len(self.amplitudes) != len(self.offsets_hz):
                raise ConfigurationError(
                    "amplitudes must match offsets: "
                    f"{len(self.amplitudes)} vs {len(self.offsets_hz)}"
                )
            if any(amplitude <= 0 for amplitude in self.amplitudes):
                raise ConfigurationError("amplitudes must all be positive")

    @property
    def n_antennas(self) -> int:
        return len(self.offsets_hz)

    def offsets_array(self) -> np.ndarray:
        """Offsets as a float array."""
        return np.asarray(self.offsets_hz, dtype=float)

    def amplitudes_array(self) -> np.ndarray:
        """Amplitude weights as a float array (ones when unspecified)."""
        if self.amplitudes is None:
            return np.ones(self.n_antennas)
        return np.asarray(self.amplitudes, dtype=float)

    def frequencies_hz(self) -> np.ndarray:
        """Absolute carrier of each antenna, ``f1 + delta_f_i``."""
        return self.center_frequency_hz + self.offsets_array()

    def rms_offset_hz(self) -> float:
        """Root-mean-square offset, the quantity bounded by Eq. 9."""
        offsets = self.offsets_array()
        return float(np.sqrt(np.mean(offsets**2)))

    def max_offset_hz(self) -> float:
        """Largest frequency offset (sets the envelope bandwidth)."""
        return float(np.max(self.offsets_array()))

    def is_cyclic(self, period_s: float = 1.0, tolerance_hz: float = 1e-9) -> bool:
        """True when every offset is an integer multiple of 1/period.

        This is the Sec. 3.6 cyclic-operation constraint: the combined
        envelope then repeats every ``period_s`` seconds so the peak
        revisits the sensor once per period.
        """
        if period_s <= 0:
            raise ValueError(f"period must be positive, got {period_s}")
        offsets = self.offsets_array() * period_s
        return bool(np.all(np.abs(offsets - np.round(offsets)) <= tolerance_hz))

    def subset(self, n_antennas: int) -> "CarrierPlan":
        """Plan restricted to the first ``n_antennas`` antennas."""
        if not 1 <= n_antennas <= self.n_antennas:
            raise ValueError(
                f"n_antennas must be in [1, {self.n_antennas}], got {n_antennas}"
            )
        amplitudes = (
            None if self.amplitudes is None else tuple(self.amplitudes[:n_antennas])
        )
        return CarrierPlan(
            center_frequency_hz=self.center_frequency_hz,
            offsets_hz=tuple(self.offsets_hz[:n_antennas]),
            amplitudes=amplitudes,
        )

    def with_amplitudes(self, amplitudes: Sequence[float]) -> "CarrierPlan":
        """Copy of the plan with new amplitude weights."""
        return CarrierPlan(
            center_frequency_hz=self.center_frequency_hz,
            offsets_hz=self.offsets_hz,
            amplitudes=tuple(float(a) for a in amplitudes),
        )

    def equal_power_amplitudes(self) -> "CarrierPlan":
        """Scale amplitudes by 1/sqrt(N) to keep the total power budget.

        Section 3.4: even under this scaling CIB still provides an N-times
        power gain over a single antenna of the same total power.
        """
        scale = 1.0 / np.sqrt(self.n_antennas)
        return self.with_amplitudes([scale] * self.n_antennas)


def paper_plan(center_frequency_hz: float = CIB_CENTER_FREQUENCY_HZ) -> CarrierPlan:
    """The published 10-antenna plan of Section 5."""
    return CarrierPlan(
        center_frequency_hz=center_frequency_hz, offsets_hz=PAPER_DELTA_F_HZ
    )


def single_antenna_plan(
    center_frequency_hz: float = CIB_CENTER_FREQUENCY_HZ,
) -> CarrierPlan:
    """A degenerate one-antenna plan (the single-antenna baseline)."""
    return CarrierPlan(center_frequency_hz=center_frequency_hz, offsets_hz=(0.0,))
