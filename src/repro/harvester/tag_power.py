"""End-to-end harvesting: incident field -> chip powered (or not).

Chains the EM and circuit substrates: the incident field at the tag
becomes available power through the antenna aperture (Eq. 3), the matched
front-end turns that into an RF voltage amplitude across the rectifier,
and Eq. 1's threshold decides power-up. This is the decision the
whole paper revolves around.
"""

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.constants import DEFAULT_RECTIFIER_STAGES, DIODE_THRESHOLD_V
from repro.em.media import Medium
from repro.em.propagation import harvested_power
from repro.errors import ConfigurationError
from repro.rf.antenna import Antenna


@dataclass
class HarvesterFrontEnd:
    """The tag's analog front-end: antenna plus matched chip input.

    Attributes:
        antenna: The tag antenna (its effective aperture drives Eq. 3).
        chip_resistance_ohms: Equivalent chip input resistance; the RF
            voltage amplitude across the rectifier for available power P is
            ``sqrt(2 P R)`` under a matched front-end.
        liquid_aperture_factor: Aperture multiplier applied when the
            surrounding medium is not air-like (detuning of an air-matched
            antenna by a high-permittivity medium).
    """

    antenna: Antenna
    chip_resistance_ohms: float = 1500.0
    liquid_aperture_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.chip_resistance_ohms <= 0:
            raise ConfigurationError("chip resistance must be positive")
        if not 0 < self.liquid_aperture_factor <= 1:
            raise ConfigurationError(
                "liquid aperture factor must be in (0, 1]"
            )

    def effective_aperture_in(
        self, medium: Medium, frequency_hz: float
    ) -> float:
        """Aperture including detuning by the surrounding medium."""
        aperture = self.antenna.effective_aperture_m2(frequency_hz)
        if medium.relative_permittivity > 2.0:
            aperture *= self.liquid_aperture_factor
        return aperture

    def available_power_w(
        self,
        field_amplitude_v_per_m: Union[float, np.ndarray],
        medium: Medium,
        frequency_hz: float,
    ) -> Union[float, np.ndarray]:
        """Eq. 3 power available from the incident field (or fields)."""
        return harvested_power(
            field_amplitude_v_per_m,
            medium,
            frequency_hz,
            self.effective_aperture_in(medium, frequency_hz),
        )

    def input_voltage_amplitude_v(
        self,
        field_amplitude_v_per_m: Union[float, np.ndarray],
        medium: Medium,
        frequency_hz: float,
    ) -> Union[float, np.ndarray]:
        """RF voltage amplitude V_s presented to the rectifier.

        A scalar field gives a float; an array of fields gives the array
        of V_s, bit for bit the scalar value of each element.
        """
        return self.voltage_from_power(
            self.available_power_w(
                field_amplitude_v_per_m, medium, frequency_hz
            )
        )

    def voltage_from_power(
        self, available_power_w: Union[float, np.ndarray]
    ) -> Union[float, np.ndarray]:
        """V_s for a known available power (or array of powers)."""
        powers = np.asarray(available_power_w, dtype=float)
        if np.count_nonzero(powers < 0):
            raise ValueError("power must be non-negative")
        volts = np.sqrt(2.0 * powers * self.chip_resistance_ohms)
        return volts if powers.ndim else float(volts)


class TagPowerModel:
    """Decides whether a peak rectifier input powers a tag chip (Eq. 1).

    Args:
        front_end: Antenna + matching network.
        n_stages: Rectifier stages.
        threshold_v: Per-stage diode threshold.
        operate_voltage_v: Storage voltage the chip needs to operate.
    """

    def __init__(
        self,
        front_end: HarvesterFrontEnd,
        n_stages: int = DEFAULT_RECTIFIER_STAGES,
        threshold_v: float = DIODE_THRESHOLD_V,
        operate_voltage_v: float = 1.8,
    ):
        if operate_voltage_v <= 0:
            raise ConfigurationError("operate voltage must be positive")
        self.front_end = front_end
        self.n_stages = int(n_stages)
        self.threshold_v = float(threshold_v)
        self.operate_voltage_v = float(operate_voltage_v)

    def minimum_input_voltage_v(self) -> float:
        """Smallest V_s that can ever reach the operating voltage (Eq. 1)."""
        return self.threshold_v + self.operate_voltage_v / self.n_stages

    def powers_up_at_peak(
        self, peak_input_voltage_v: Union[float, np.ndarray]
    ) -> Union[bool, np.ndarray]:
        """Threshold test from the peak V_s alone (Eq. 1 inverted).

        The tag powers up iff the peak input voltage clears
        ``V_th + V_operate / N``. A scalar gives a bool, an array of peaks
        a boolean array (NaN never powers up).
        """
        voltages = np.asarray(peak_input_voltage_v, dtype=float)
        if np.count_nonzero(voltages < 0):
            raise ValueError("voltage must be non-negative")
        powered = voltages >= self.minimum_input_voltage_v()
        return powered if powered.ndim else bool(powered)
