"""N-stage voltage-multiplier rectifier (Section 2.1, Eq. 1, Fig. 4).

The rectifier (Dickson charge pump) converts the RF envelope into DC.
Three analytic views are provided:

* :func:`ideal_output_voltage` -- Eq. 1, ``V_DC = N (V_s - V_th)``.
* :func:`conduction_angle_rad` -- the within-carrier-cycle angle the diode
  conducts, the purple regions of Fig. 4.
* :func:`harvesting_efficiency` -- the fraction of RF power past the
  threshold.

The time-stepped storage-capacitor charge is
:func:`repro.kernels.rectifier_batch`.
"""

import math

import numpy as np

from repro.constants import DEFAULT_RECTIFIER_STAGES, DIODE_THRESHOLD_V


def ideal_output_voltage(
    input_amplitude_v: float,
    n_stages: int = DEFAULT_RECTIFIER_STAGES,
    threshold_v: float = DIODE_THRESHOLD_V,
) -> float:
    """Eq. 1: open-circuit DC output of an N-stage harvester.

    Returns zero when the input amplitude does not clear the threshold --
    the hard cutoff that defines the deep-tissue problem.
    """
    if input_amplitude_v < 0:
        raise ValueError(f"amplitude must be non-negative, got {input_amplitude_v}")
    if n_stages < 1:
        raise ValueError(f"need at least one stage, got {n_stages}")
    if threshold_v < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold_v}")
    return n_stages * max(0.0, input_amplitude_v - threshold_v)


def conduction_angle_rad(
    input_amplitude_v: float, threshold_v: float = DIODE_THRESHOLD_V
) -> float:
    """Conduction angle omega within one carrier cycle (Fig. 4).

    For a sinusoidal input of amplitude V_s the diode conducts while
    ``V_s cos(theta) > V_th``, i.e. over an angle ``2 arccos(V_th / V_s)``;
    zero when the peak never clears the threshold (Fig. 4c).
    """
    if input_amplitude_v < 0:
        raise ValueError(f"amplitude must be non-negative, got {input_amplitude_v}")
    if threshold_v < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold_v}")
    if input_amplitude_v <= threshold_v:
        return 0.0
    if threshold_v == 0.0:
        return math.pi
    return 2.0 * math.acos(threshold_v / input_amplitude_v)


_EFFICIENCY_COS = np.cos(np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False))
_EFFICIENCY_COS.setflags(write=False)
"""Carrier-cycle cosine grid of :func:`harvesting_efficiency`, built once
(the function sits in power-sweep inner loops)."""


def harvesting_efficiency(
    input_amplitude_v: float, threshold_v: float = DIODE_THRESHOLD_V
) -> float:
    """Fraction of input RF power convertible to DC, from the I-V model.

    Computed as the power delivered past the threshold relative to the
    input power over one carrier cycle; rises steeply once V_s clears
    V_th -- the reason the harvester is "significantly more efficient with
    a large input voltage" (Sec. 2.1.1).
    """
    if input_amplitude_v <= threshold_v or input_amplitude_v == 0.0:
        return 0.0
    instantaneous = input_amplitude_v * _EFFICIENCY_COS
    conducting = instantaneous > threshold_v
    delivered = np.mean(
        np.where(conducting, (instantaneous - threshold_v) * instantaneous, 0.0)
    )
    input_power = input_amplitude_v**2 / 2.0
    return float(np.clip(delivered / input_power, 0.0, 1.0))
