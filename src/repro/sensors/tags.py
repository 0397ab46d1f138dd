"""The two commercial battery-free tags used in the evaluation (Section 5c).

* The **standard tag** models the Avery Dennison AD-238u8 inlay:
  1.4 cm x 7 cm, a well-matched meandered dipole.
* The **miniature tag** models the Xerafy Dash-On XS:
  1.2 cm x 0.3 cm x 0.22 cm, an electrically-small antenna with far lower
  harvesting efficiency -- the Sec. 2.2.2 challenge incarnate.

Physical parameters are order-of-magnitude values chosen so the *single-
antenna* behaviour matches the paper's measurements (5.2 m air range for
the standard tag, ~0.5 m for the miniature one); everything multi-antenna
then emerges from the model.
"""

from dataclasses import dataclass
from typing import Tuple

from repro.constants import DEFAULT_RECTIFIER_STAGES, DIODE_THRESHOLD_V
from repro.errors import ConfigurationError
from repro.harvester.tag_power import HarvesterFrontEnd, TagPowerModel
from repro.rf.antenna import (
    Antenna,
    MINIATURE_TAG_ANTENNA,
    STANDARD_TAG_ANTENNA,
)


@dataclass(frozen=True)
class TagSpec:
    """Electrical and protocol parameters of one battery-free tag model.

    Attributes:
        name: Human-readable label.
        dimensions_m: (length, width, height) of the package.
        antenna: The tag antenna model (drives Eq. 3).
        chip_resistance_ohms: Front-end equivalent resistance.
        threshold_v: Rectifier diode threshold (Eq. 1's V_th).
        n_stages: Rectifier stage count.
        operate_voltage_v: Storage voltage required to run the chip.
        modulation_depth: Backscatter amplitude modulation depth in (0,1].
        max_query_fluctuation: Largest envelope fluctuation the tag's
            envelope detector tolerates while decoding (Eq. 7's alpha).
        blf_hz: Backscatter link frequency.
        liquid_aperture_factor: Multiplier on the effective aperture when
            the tag is immersed in a high-permittivity medium. The
            air-matched standard inlay detunes badly in liquid; the
            miniature tag sits in a matching tube (Section 5c) and keeps
            its aperture.
    """

    name: str
    dimensions_m: Tuple[float, float, float]
    antenna: Antenna
    chip_resistance_ohms: float = 1500.0
    threshold_v: float = DIODE_THRESHOLD_V
    n_stages: int = DEFAULT_RECTIFIER_STAGES
    operate_voltage_v: float = 1.8
    modulation_depth: float = 0.5
    max_query_fluctuation: float = 0.5
    blf_hz: float = 40e3
    liquid_aperture_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.liquid_aperture_factor <= 1:
            raise ConfigurationError(
                "liquid aperture factor must be in (0, 1]"
            )
        if any(d <= 0 for d in self.dimensions_m):
            raise ConfigurationError("dimensions must be positive")
        if self.chip_resistance_ohms <= 0:
            raise ConfigurationError("chip resistance must be positive")
        if self.threshold_v < 0:
            raise ConfigurationError("threshold must be non-negative")
        if self.n_stages < 1:
            raise ConfigurationError("need at least one rectifier stage")
        if self.operate_voltage_v <= 0:
            raise ConfigurationError("operate voltage must be positive")
        if not 0 < self.modulation_depth <= 1:
            raise ConfigurationError("modulation depth must be in (0, 1]")
        if not 0 < self.max_query_fluctuation <= 0.5:
            raise ConfigurationError(
                "query fluctuation tolerance must be in (0, 0.5]"
            )
        if self.blf_hz <= 0:
            raise ConfigurationError("BLF must be positive")

    def front_end(self) -> HarvesterFrontEnd:
        """The tag's antenna and chip input as an Eq. 3 front end."""
        return HarvesterFrontEnd(
            antenna=self.antenna,
            chip_resistance_ohms=self.chip_resistance_ohms,
            liquid_aperture_factor=self.liquid_aperture_factor,
        )

    def power_model(self) -> TagPowerModel:
        """The tag's Eq. 1 power-up decision over its front end."""
        return TagPowerModel(
            self.front_end(),
            n_stages=self.n_stages,
            threshold_v=self.threshold_v,
            operate_voltage_v=self.operate_voltage_v,
        )

    def minimum_input_voltage_v(self) -> float:
        """Smallest rectifier input amplitude that can power the chip."""
        return self.power_model().minimum_input_voltage_v()


def standard_tag_spec() -> TagSpec:
    """The AD-238u8-like standard RFID inlay."""
    return TagSpec(
        name="AD-238u8 (standard)",
        dimensions_m=(0.07, 0.014, 0.0003),
        antenna=STANDARD_TAG_ANTENNA,
        # The air-matched inlay detunes in high-permittivity media; the
        # aperture collapses by ~12 dB (a factor 4 in voltage).
        liquid_aperture_factor=1.0 / 16.0,
    )


def miniature_tag_spec() -> TagSpec:
    """The Xerafy Dash-On XS-like millimeter-scale tag."""
    return TagSpec(
        name="Xerafy Dash-On XS (miniature)",
        dimensions_m=(0.012, 0.003, 0.0022),
        antenna=MINIATURE_TAG_ANTENNA,
        # The tiny loop is harder to match; a slightly lower equivalent
        # resistance reflects its lossier front end.
        chip_resistance_ohms=1200.0,
    )
