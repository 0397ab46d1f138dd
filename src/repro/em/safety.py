"""Exposure and regulatory analysis (Section 7's compliance claim).

The paper argues IVN's "intrinsic duty-cycled operation makes it FCC
compliant and safe for human exposure": CIB's envelope peaks are brief, so
time-averaged exposure stays low even when the instantaneous peak is large
enough to wake a deep implant. This module quantifies that:

* local SAR from the in-tissue field, ``SAR = sigma |E_rms|^2 / rho``;
* time-averaged SAR of a CIB envelope vs. a CW carrier of equal peak;
* FCC Part 15.247 conducted/EIRP limits for the 902-928 MHz band.
"""

import math
from dataclasses import dataclass

import numpy as np

from repro.em.media import Medium
from repro.errors import ConfigurationError

#: IEEE C95.1 / FCC localized SAR limit for the general public (W/kg,
#: averaged over 1 g of tissue).
LOCALIZED_SAR_LIMIT_W_PER_KG = 1.6

#: Whole-body average SAR limit (W/kg).
WHOLE_BODY_SAR_LIMIT_W_PER_KG = 0.08

#: FCC Part 15.247: 1 W conducted + 6 dBi antenna -> 4 W EIRP for
#: frequency-hopping systems in 902-928 MHz.
FCC_MAX_EIRP_W = 4.0

#: Default tissue mass density (kg/m^3).
TISSUE_DENSITY_KG_PER_M3 = 1050.0


def local_sar_w_per_kg(
    field_amplitude_v_per_m: float,
    medium: Medium,
    density_kg_per_m3: float = TISSUE_DENSITY_KG_PER_M3,
) -> float:
    """Instantaneous local SAR from a peak field amplitude in tissue.

    ``SAR = sigma * E_rms^2 / rho`` with ``E_rms = E_peak / sqrt(2)``.
    """
    if field_amplitude_v_per_m < 0:
        raise ValueError("field amplitude must be non-negative")
    if density_kg_per_m3 <= 0:
        raise ConfigurationError("density must be positive")
    e_rms_squared = field_amplitude_v_per_m**2 / 2.0
    return medium.conductivity_s_per_m * e_rms_squared / density_kg_per_m3


def time_averaged_sar_w_per_kg(
    envelope_v_per_m: np.ndarray,
    medium: Medium,
    density_kg_per_m3: float = TISSUE_DENSITY_KG_PER_M3,
) -> float:
    """Exposure-averaged SAR of a field-envelope trace.

    Regulatory averaging windows (6 min) are far longer than CIB's 1-s
    period, so averaging over whole periods is the relevant quantity.
    """
    envelope = np.asarray(envelope_v_per_m, dtype=float)
    if envelope.ndim != 1 or envelope.size == 0:
        raise ValueError("envelope must be a non-empty 1-D array")
    if np.any(envelope < 0):
        raise ValueError("envelope amplitudes must be non-negative")
    mean_e_rms_squared = float(np.mean(envelope**2)) / 2.0
    return (
        medium.conductivity_s_per_m * mean_e_rms_squared / density_kg_per_m3
    )


@dataclass(frozen=True)
class ExposureReport:
    """Summary of one configuration's exposure characteristics.

    Attributes:
        peak_sar_w_per_kg: SAR at the envelope's highest instant.
        average_sar_w_per_kg: Time-averaged SAR over the envelope.
        peak_to_average: Exposure crest factor -- CIB's defining benefit.
        sar_compliant: Average SAR within the localized limit.
        eirp_w: Radiated EIRP per transmit branch.
        eirp_compliant: Branch EIRP within the FCC Part 15.247 cap.
    """

    peak_sar_w_per_kg: float
    average_sar_w_per_kg: float
    peak_to_average: float
    sar_compliant: bool
    eirp_w: float
    eirp_compliant: bool

    def summary(self) -> str:
        return (
            f"peak SAR {self.peak_sar_w_per_kg:.3g} W/kg, "
            f"average {self.average_sar_w_per_kg:.3g} W/kg "
            f"(crest {self.peak_to_average:.1f}x); "
            f"SAR {'OK' if self.sar_compliant else 'OVER LIMIT'}, "
            f"EIRP {self.eirp_w:.1f} W "
            f"{'OK' if self.eirp_compliant else 'OVER LIMIT'}"
        )


def exposure_report(
    envelope_v_per_m: np.ndarray,
    medium: Medium,
    eirp_per_branch_w: float,
    sar_limit_w_per_kg: float = LOCALIZED_SAR_LIMIT_W_PER_KG,
    density_kg_per_m3: float = TISSUE_DENSITY_KG_PER_M3,
) -> ExposureReport:
    """Assess a CIB field envelope at the most-exposed tissue point."""
    if eirp_per_branch_w <= 0:
        raise ValueError("EIRP must be positive")
    envelope = np.asarray(envelope_v_per_m, dtype=float)
    peak = local_sar_w_per_kg(float(np.max(envelope)), medium, density_kg_per_m3)
    average = time_averaged_sar_w_per_kg(envelope, medium, density_kg_per_m3)
    crest = peak / average if average > 0 else math.inf
    return ExposureReport(
        peak_sar_w_per_kg=peak,
        average_sar_w_per_kg=average,
        peak_to_average=crest,
        sar_compliant=average <= sar_limit_w_per_kg,
        eirp_w=eirp_per_branch_w,
        eirp_compliant=eirp_per_branch_w <= FCC_MAX_EIRP_W,
    )


def cw_equivalent_average_sar(
    peak_field_v_per_m: float,
    medium: Medium,
    density_kg_per_m3: float = TISSUE_DENSITY_KG_PER_M3,
) -> float:
    """Average SAR of a continuous carrier holding the same peak field.

    The comparison Sec. 7 implies: delivering the threshold-beating peak
    *continuously* (the naive alternative to CIB's duty-cycled peaks)
    costs this much average exposure.
    """
    return local_sar_w_per_kg(peak_field_v_per_m, medium, density_kg_per_m3)
