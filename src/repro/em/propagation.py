"""Field propagation following the paper's Eq. 2 and Eq. 3.

The model: a transmitter radiates in air; the far-field amplitude falls as
1/r. At the air-tissue boundary a transmittance factor T < 1 survives the
reflection; inside the tissue the field decays exponentially with the
medium's attenuation constant alpha:

    |E| = T * A / r * exp(-alpha * d)                 (Eq. 2)

and the power a small antenna can harvest from that field is

    P_L = |E|^2 / eta * A_eff                         (Eq. 3)
"""

import math
from typing import Union

import numpy as np

from repro.em.media import AIR, Medium
from repro.errors import ConfigurationError


def field_scale(eirp_watts: float) -> float:
    """Peak field per unit channel gain, ``sqrt(60 * EIRP)``.

    Channel gains carry the 1/r spreading and tissue loss, so a carrier's
    field amplitude at the tag is ``field_scale(EIRP) * |gain|``. A zero,
    negative, NaN or infinite EIRP raises :class:`ConfigurationError`.
    """
    if not 0 < eirp_watts < math.inf:
        raise ConfigurationError(
            f"EIRP must be positive and finite, got {eirp_watts}"
        )
    return math.sqrt(60.0 * eirp_watts)


def free_space_field_amplitude(
    eirp_watts: float, distance_m: float
) -> float:
    """Peak electric-field amplitude at ``distance_m`` from an EIRP source.

    Uses the standard far-field relation ``E_rms = sqrt(30 * EIRP) / r`` and
    converts to the peak amplitude used by the rectifier model. A
    negative, NaN or infinite EIRP (zero is allowed) or a non-positive,
    NaN or infinite distance raises :class:`ConfigurationError`.
    """
    if not 0 <= eirp_watts < math.inf:
        raise ConfigurationError(
            f"EIRP must be non-negative and finite, got {eirp_watts}"
        )
    if not 0 < distance_m < math.inf:
        raise ConfigurationError(
            f"distance must be positive and finite, got {distance_m}"
        )
    e_rms = math.sqrt(30.0 * eirp_watts) / distance_m
    return e_rms * math.sqrt(2.0)


def field_transmittance(
    medium_from: Medium, medium_to: Medium, frequency_hz: float
) -> float:
    """Amplitude transmission coefficient at a planar boundary.

    Normal incidence: ``T = 2 eta_2 / (eta_1 + eta_2)`` where eta is the
    intrinsic impedance of each medium. For air-to-tissue interfaces at
    ~1 GHz this comes out to a 3-5 dB power loss, matching Sec. 2.2.1.
    """
    eta_1 = medium_from.wave_impedance(frequency_hz)
    eta_2 = medium_to.wave_impedance(frequency_hz)
    return abs(2.0 * eta_2 / (eta_1 + eta_2))


def power_transmittance(
    medium_from: Medium, medium_to: Medium, frequency_hz: float
) -> float:
    """Fraction of incident power crossing a planar boundary.

    Computed as ``1 - |Gamma|^2`` with the normal-incidence reflection
    coefficient ``Gamma = (eta_2 - eta_1) / (eta_2 + eta_1)``.
    """
    eta_1 = medium_from.wave_impedance(frequency_hz)
    eta_2 = medium_to.wave_impedance(frequency_hz)
    gamma = (eta_2 - eta_1) / (eta_2 + eta_1)
    return 1.0 - abs(gamma) ** 2


def tissue_field_amplitude(
    eirp_watts: float,
    air_distance_m: float,
    depth_m: float,
    medium: Medium,
    frequency_hz: float,
) -> float:
    """Eq. 2: field amplitude after ``air_distance_m`` of air plus ``depth_m``
    of ``medium``.

    A ``depth_m`` of zero reduces to the free-space amplitude times the
    boundary transmittance (unless the medium is air, where T = 1). A
    negative, NaN or infinite depth raises :class:`ConfigurationError`.
    """
    if not 0 <= depth_m < math.inf:
        raise ConfigurationError(
            f"depth must be non-negative and finite, got {depth_m}"
        )
    amplitude = free_space_field_amplitude(eirp_watts, air_distance_m)
    if medium is AIR or medium == AIR:
        return amplitude
    transmittance = field_transmittance(AIR, medium, frequency_hz)
    alpha = medium.attenuation_np_per_m(frequency_hz)
    return amplitude * transmittance * math.exp(-alpha * depth_m)


def libm_squares(values: Union[float, np.ndarray]) -> np.ndarray:
    """``value ** 2`` of each element, squared as a Python float.

    Python's ``**`` calls libm's ``pow``, which rounds differently from
    ``x * x`` (and so from numpy's ``**``) on about 0.08% of doubles. The
    scalar models square with ``**``, so an array path that must match
    them bit for bit squares through this.
    """
    values = np.asarray(values, dtype=float)
    return np.array(
        [value**2 for value in values.ravel().tolist()]
    ).reshape(values.shape)


def harvested_power(
    field_amplitude_v_per_m: Union[float, np.ndarray],
    medium: Medium,
    frequency_hz: float,
    effective_aperture_m2: float,
) -> Union[float, np.ndarray]:
    """Eq. 3: power available to the harvesting circuit.

    ``P_L = E_rms^2 / eta * A_eff`` where ``field_amplitude_v_per_m`` is the
    peak field and eta the magnitude of the medium's wave impedance. A
    scalar field gives a float, an array of fields an array of powers.
    NaN fields pass through as NaN powers.
    """
    fields = np.asarray(field_amplitude_v_per_m, dtype=float)
    values = fields.ravel().tolist()
    negative = [value for value in values if value < 0]
    if negative:
        raise ValueError(
            f"field amplitude must be non-negative, got {negative[0]}"
        )
    if effective_aperture_m2 <= 0:
        raise ValueError(
            f"effective aperture must be positive, got {effective_aperture_m2}"
        )
    eta = abs(medium.wave_impedance(frequency_hz))
    power = libm_squares(fields) / 2.0 / eta * effective_aperture_m2
    return power if fields.ndim else float(power)


def friis_received_power(
    tx_power_watts: float,
    tx_gain_linear: float,
    rx_gain_linear: float,
    distance_m: float,
    frequency_hz: float,
) -> float:
    """Classic Friis free-space link budget (used for air-range baselines)."""
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    wavelength = _free_space_wavelength(frequency_hz)
    factor = (wavelength / (4.0 * math.pi * distance_m)) ** 2
    return tx_power_watts * tx_gain_linear * rx_gain_linear * factor


def _free_space_wavelength(frequency_hz: float) -> float:
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    from repro.constants import SPEED_OF_LIGHT

    return SPEED_OF_LIGHT / frequency_hz
