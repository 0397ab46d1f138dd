"""Dielectric media for RF propagation through air, fluids, and tissues.

Each medium is described by its relative permittivity and conductivity at
UHF frequencies; the complex propagation constant, attenuation, and wave
impedance follow from standard lossy-medium electromagnetics. Values are
taken from the tissue-dielectric literature the paper cites ([36, 39]):
tissue attenuation at low-GHz frequencies spans roughly 2.3-6.9 dB/cm and
the attenuation constant alpha spans roughly 13-80 Np/m.
"""

import functools
import math
from dataclasses import dataclass
from typing import Dict

from repro.constants import VACUUM_PERMEABILITY, VACUUM_PERMITTIVITY
from repro.errors import ConfigurationError

NEPERS_TO_DB = 20.0 / math.log(10.0)
"""One neper of field attenuation is ~8.686 dB."""


@dataclass(frozen=True)
class Medium:
    """A homogeneous, non-magnetic propagation medium.

    Attributes:
        name: Human-readable label used in reports.
        relative_permittivity: Real relative permittivity epsilon_r.
        conductivity_s_per_m: Conductivity sigma in S/m.
    """

    name: str
    relative_permittivity: float
    conductivity_s_per_m: float

    def __post_init__(self) -> None:
        if self.relative_permittivity < 1.0:
            raise ConfigurationError(
                f"relative permittivity must be >= 1, got "
                f"{self.relative_permittivity} for {self.name!r}"
            )
        if self.conductivity_s_per_m < 0.0:
            raise ConfigurationError(
                f"conductivity must be non-negative, got "
                f"{self.conductivity_s_per_m} for {self.name!r}"
            )

    # -- frequency-dependent electromagnetic properties ---------------------

    def complex_permittivity(self, frequency_hz: float) -> complex:
        """Complex permittivity epsilon' - j sigma/omega (F/m)."""
        _require_positive_frequency(frequency_hz)
        omega = 2.0 * math.pi * frequency_hz
        real = self.relative_permittivity * VACUUM_PERMITTIVITY
        return complex(real, -self.conductivity_s_per_m / omega)

    def loss_tangent(self, frequency_hz: float) -> float:
        """Ratio of conduction to displacement current, sigma / (omega eps')."""
        _require_positive_frequency(frequency_hz)
        omega = 2.0 * math.pi * frequency_hz
        return self.conductivity_s_per_m / (
            omega * self.relative_permittivity * VACUUM_PERMITTIVITY
        )

    def propagation_constant(self, frequency_hz: float) -> complex:
        """gamma = alpha + j beta, from gamma = j omega sqrt(mu epsilon_c)."""
        return _propagation_constant(self, frequency_hz)

    def attenuation_np_per_m(self, frequency_hz: float) -> float:
        """Field attenuation constant alpha (Np/m); the alpha of Eq. 2."""
        return self.propagation_constant(frequency_hz).real

    def attenuation_db_per_cm(self, frequency_hz: float) -> float:
        """Field attenuation in dB per centimeter, the unit used in Sec. 2.2.1."""
        return self.attenuation_np_per_m(frequency_hz) * NEPERS_TO_DB / 100.0

    def phase_constant_rad_per_m(self, frequency_hz: float) -> float:
        """Phase constant beta (rad/m)."""
        return self.propagation_constant(frequency_hz).imag

    def wave_impedance(self, frequency_hz: float) -> complex:
        """Intrinsic impedance eta = sqrt(j omega mu / (sigma + j omega eps'))."""
        return _wave_impedance(self, frequency_hz)

    def wavelength_m(self, frequency_hz: float) -> float:
        """Wavelength inside the medium (m)."""
        beta = self.phase_constant_rad_per_m(frequency_hz)
        return 2.0 * math.pi / beta

    def phase_velocity_m_per_s(self, frequency_hz: float) -> float:
        """Phase velocity inside the medium (m/s)."""
        return frequency_hz * self.wavelength_m(frequency_hz)

    @property
    def is_lossless(self) -> bool:
        """True when the medium has zero conductivity (e.g. air)."""
        return self.conductivity_s_per_m == 0.0


# The two constants every field factor and Eq. 3 evaluation needs, cached
# per (medium, frequency): a Medium is frozen, so neither can change.
# ``typed`` keeps a NumPy-scalar frequency, whose arithmetic differs from a
# Python float's, from sharing an entry with the float.
@functools.lru_cache(maxsize=256, typed=True)
def _propagation_constant(medium: Medium, frequency_hz: float) -> complex:
    _require_positive_frequency(frequency_hz)
    omega = 2.0 * math.pi * frequency_hz
    epsilon_c = medium.complex_permittivity(frequency_hz)
    gamma = 1j * omega * complex(math.sqrt(VACUUM_PERMEABILITY), 0) * _csqrt(
        epsilon_c
    )
    return gamma


@functools.lru_cache(maxsize=256, typed=True)
def _wave_impedance(medium: Medium, frequency_hz: float) -> complex:
    _require_positive_frequency(frequency_hz)
    omega = 2.0 * math.pi * frequency_hz
    numerator = 1j * omega * VACUUM_PERMEABILITY
    denominator = medium.conductivity_s_per_m + (
        1j * omega * medium.relative_permittivity * VACUUM_PERMITTIVITY
    )
    return _csqrt(numerator / denominator)


def _csqrt(value: complex) -> complex:
    """Principal square root with a positive-real-part branch."""
    root = value ** 0.5
    if root.real < 0:
        root = -root
    return root


def _require_positive_frequency(frequency_hz: float) -> None:
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")


# ---------------------------------------------------------------------------
# Media library. Permittivity/conductivity values are representative 915 MHz
# numbers from the tissue-dielectric literature (Gabriel et al. compilations
# and the paper's references [36, 39]). Simulated gastric/intestinal fluids
# per USP 37 are conductive saline solutions.
# ---------------------------------------------------------------------------

AIR = Medium("air", relative_permittivity=1.0, conductivity_s_per_m=0.0)
WATER = Medium("water", relative_permittivity=78.0, conductivity_s_per_m=0.30)
GASTRIC_FLUID = Medium(
    "gastric fluid", relative_permittivity=75.0, conductivity_s_per_m=1.40
)
INTESTINAL_FLUID = Medium(
    "intestinal fluid", relative_permittivity=73.0, conductivity_s_per_m=1.60
)
STEAK = Medium("steak", relative_permittivity=55.0, conductivity_s_per_m=0.95)
BACON = Medium("bacon", relative_permittivity=7.5, conductivity_s_per_m=0.10)
CHICKEN = Medium("chicken", relative_permittivity=52.0, conductivity_s_per_m=0.80)
SKIN = Medium("skin", relative_permittivity=41.0, conductivity_s_per_m=0.87)
FAT = Medium("fat", relative_permittivity=5.5, conductivity_s_per_m=0.05)
MUSCLE = Medium("muscle", relative_permittivity=55.0, conductivity_s_per_m=0.95)
STOMACH_WALL = Medium(
    "stomach wall", relative_permittivity=65.0, conductivity_s_per_m=1.20
)
GASTRIC_CONTENT = Medium(
    "gastric content", relative_permittivity=75.0, conductivity_s_per_m=1.40
)
BLOOD = Medium("blood", relative_permittivity=61.0, conductivity_s_per_m=1.54)
BONE = Medium("bone", relative_permittivity=12.4, conductivity_s_per_m=0.14)
BRAIN = Medium("brain", relative_permittivity=45.8, conductivity_s_per_m=0.77)
CSF = Medium("cerebrospinal fluid", relative_permittivity=68.6,
             conductivity_s_per_m=2.41)

MEDIA_LIBRARY: Dict[str, Medium] = {
    medium.name: medium
    for medium in (
        AIR,
        WATER,
        GASTRIC_FLUID,
        INTESTINAL_FLUID,
        STEAK,
        BACON,
        CHICKEN,
        SKIN,
        FAT,
        MUSCLE,
        STOMACH_WALL,
        GASTRIC_CONTENT,
        BLOOD,
        BONE,
        BRAIN,
        CSF,
    )
}

FIG11_MEDIA = (AIR, WATER, GASTRIC_FLUID, INTESTINAL_FLUID, STEAK, BACON, CHICKEN)
"""The seven media evaluated in Fig. 11, in the paper's order."""


def get_medium(name: str) -> Medium:
    """Look up a medium by name.

    Raises:
        KeyError: when the medium is not in the library.
    """
    try:
        return MEDIA_LIBRARY[name]
    except KeyError:
        known = ", ".join(sorted(MEDIA_LIBRARY))
        raise KeyError(f"unknown medium {name!r}; known media: {known}") from None
