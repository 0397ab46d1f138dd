"""Self-jamming from the CIB beamformer at the reader (Section 4).

The beamformer's carriers can combine constructively at the reader's
receive antenna just as they do at the sensor, saturating the receiver.
This module computes the jamming level at the reader and how much of it
survives the out-of-band reader's SAW filter.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.errors import ConfigurationError
from repro.rf.receiver import SawFilter


@dataclass(frozen=True)
class JammingEstimate:
    """Self-jamming at the reader's antenna port.

    Attributes:
        incident_power_w: Total CIB power incident on the reader antenna
            (sum over transmit branches; worst-case coherent peaks are up
            to N times higher).
        peak_power_w: Worst-case constructive-peak jamming power.
        residual_power_w: Power after the reader's front-end filter.
    """

    incident_power_w: float
    peak_power_w: float
    residual_power_w: float

    def residual_amplitude_v(self, load_ohms: float = 50.0) -> float:
        """Equivalent amplitude of the residual jam across a load."""
        return math.sqrt(2.0 * self.residual_power_w * load_ohms)


def jamming_at_reader(
    eirp_per_branch_w: Sequence[float],
    beamformer_frequency_hz: float,
    distances_m: Sequence[float],
    reader_rx_gain_linear: float,
    saw: Optional[SawFilter] = None,
) -> JammingEstimate:
    """Estimate CIB self-jamming at the reader.

    Args:
        eirp_per_branch_w: EIRP of each beamformer branch.
        beamformer_frequency_hz: CIB center carrier (the jam's frequency).
        distances_m: Distance from each beamformer antenna to the reader's
            receive antenna.
        reader_rx_gain_linear: Receive antenna gain toward the beamformer.
        saw: The reader's front-end filter; ``None`` models an in-band
            reader with no rejection (the ablation case).
    """
    eirp = np.asarray(eirp_per_branch_w, dtype=float)
    distances = np.asarray(distances_m, dtype=float)
    if eirp.shape != distances.shape:
        raise ConfigurationError(
            "need one distance per beamformer branch: "
            f"{eirp.shape} vs {distances.shape}"
        )
    if np.any(eirp < 0) or np.any(distances <= 0):
        raise ConfigurationError("EIRPs must be >= 0 and distances > 0")
    wavelength = SPEED_OF_LIGHT / beamformer_frequency_hz
    path_gain = (wavelength / (4.0 * math.pi * distances)) ** 2
    per_branch = eirp * reader_rx_gain_linear * path_gain
    incident = float(np.sum(per_branch))
    # Worst case: all branch fields align -> amplitude sum, power N times
    # the incoherent sum for equal branches.
    amplitude_sum = float(np.sum(np.sqrt(per_branch)))
    peak = amplitude_sum**2
    rejection = (
        1.0 if saw is None else saw.power_rejection(beamformer_frequency_hz)
    )
    return JammingEstimate(
        incident_power_w=incident,
        peak_power_w=peak,
        residual_power_w=peak * rejection,
    )

