"""Antenna models: gain, effective aperture, polarization and orientation.

Eq. 3 ties harvested power to the antenna's effective area; for an antenna
of gain G at wavelength lambda the effective aperture is
``A_eff = G lambda^2 / (4 pi)``. Miniature implant antennas are
electrically small, which is modeled as an aperture efficiency well below
one -- the second fundamental challenge of Sec. 2.2.2.
"""

import math
from dataclasses import dataclass

from repro.constants import SPEED_OF_LIGHT
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Antenna:
    """A reciprocal antenna characterized by gain and efficiency.

    Attributes:
        name: Label for reports.
        gain_dbi: Boresight gain over isotropic.
        aperture_efficiency: Scales the ideal effective aperture; captures
            the poor harvesting efficiency of electrically-small implant
            antennas (mismatch, ohmic loss, detuning by the medium).
        polarization: ``"linear"`` or ``"circular"``. Circular TX with a
            linear tag costs 3 dB but removes rotation sensitivity in the
            polarization plane (the paper's RHCP MT-242025 panels).
    """

    name: str
    gain_dbi: float
    aperture_efficiency: float = 1.0
    polarization: str = "linear"

    def __post_init__(self) -> None:
        if not 0.0 < self.aperture_efficiency <= 1.0:
            raise ConfigurationError(
                f"aperture efficiency must be in (0, 1], got "
                f"{self.aperture_efficiency}"
            )
        if self.polarization not in ("linear", "circular"):
            raise ConfigurationError(
                f"polarization must be 'linear' or 'circular', got "
                f"{self.polarization!r}"
            )

    @property
    def gain_linear(self) -> float:
        """Boresight gain as a linear power ratio."""
        return 10.0 ** (self.gain_dbi / 10.0)

    def wavelength_m(self, frequency_hz: float) -> float:
        if frequency_hz <= 0:
            raise ValueError(f"frequency must be positive, got {frequency_hz}")
        return SPEED_OF_LIGHT / frequency_hz

    def effective_aperture_m2(self, frequency_hz: float) -> float:
        """``A_eff = eta_ap * G lambda^2 / (4 pi)`` (Eq. 3's A_eff)."""
        wavelength = self.wavelength_m(frequency_hz)
        ideal = self.gain_linear * wavelength**2 / (4.0 * math.pi)
        return self.aperture_efficiency * ideal

    def orientation_gain(self, angle_rad: float) -> float:
        """Amplitude factor for rotating a linear antenna by ``angle_rad``.

        A linear antenna rotated within the polarization plane of a linear
        source sees ``|cos(angle)|``; against a circular source the factor
        is constant (that is the point of circular polarization).
        """
        if self.polarization == "circular":
            return 1.0
        return abs(math.cos(angle_rad))


# -- catalogue of the paper's hardware ---------------------------------------

MT242025_PANEL = Antenna(
    name="MT-242025 RHCP panel", gain_dbi=7.0, polarization="circular"
)
"""The 7 dBi RHCP RFID panels driving the beamformer and reader."""

RFX900_MONITOR = Antenna(name="RFX900 monitor", gain_dbi=3.0)
"""Receive antenna of the dedicated peak-power measurement USRP."""

STANDARD_TAG_ANTENNA = Antenna(
    name="AD-238u8 dipole", gain_dbi=2.0, aperture_efficiency=0.8
)
"""The standard 1.4 cm x 7 cm RFID inlay's meandered dipole."""

MINIATURE_TAG_ANTENNA = Antenna(
    name="Xerafy Dash-On XS loop", gain_dbi=-8.0, aperture_efficiency=0.12
)
"""The millimeter-scale tag antenna: low gain and poor aperture efficiency."""
