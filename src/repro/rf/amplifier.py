"""Power amplifier with gain compression.

The prototype feeds each USRP into an HMC453QS16 power amplifier whose
1-dB compression point is 30 dBm (Section 5). Driving past P1dB distorts
the CIB envelope, so the link simulation models compression with the
standard Rapp (soft-limiter) AM/AM characteristic.
"""

import math

import numpy as np

from repro.analysis.stats import dbm_to_watts
from repro.errors import ConfigurationError


class PowerAmplifier:
    """Rapp-model power amplifier.

    AM/AM: ``out = g*v / (1 + (g*v / v_sat)^(2p))^(1/2p)`` where ``v_sat``
    is the saturation amplitude and ``p`` the knee smoothness. The 1-dB
    compression point relates to saturation by the model itself; we place
    ``v_sat`` so the requested P1dB is honored.

    Args:
        gain_db: Small-signal power gain.
        p1db_dbm: Output-referred 1-dB compression point.
        smoothness: Rapp knee parameter (2-3 fits real PAs well).
        load_ohms: Reference impedance relating amplitude to power.
    """

    def __init__(
        self,
        gain_db: float = 20.0,
        p1db_dbm: float = 30.0,
        smoothness: float = 2.0,
        load_ohms: float = 50.0,
    ):
        if smoothness <= 0:
            raise ConfigurationError(f"smoothness must be positive, got {smoothness}")
        if load_ohms <= 0:
            raise ConfigurationError(f"load must be positive, got {load_ohms}")
        self.gain_db = float(gain_db)
        self.p1db_dbm = float(p1db_dbm)
        self.smoothness = float(smoothness)
        self.load_ohms = float(load_ohms)
        self._gain_linear = 10.0 ** (gain_db / 20.0)
        p1db_watts = dbm_to_watts(p1db_dbm)
        v_1db = math.sqrt(2.0 * p1db_watts * load_ohms)
        # At the 1-dB point the Rapp model must compress by exactly 1 dB:
        # 1/(1 + (v1/vsat)^(2p))^(1/2p) = 10^(-1/20).
        ratio = (10.0 ** (2.0 * self.smoothness / 20.0) - 1.0) ** (
            1.0 / (2.0 * self.smoothness)
        )
        self._v_sat = v_1db / ratio * 10.0 ** (1.0 / 20.0)

    def amplify(self, samples: np.ndarray) -> np.ndarray:
        """Apply gain and AM/AM compression to complex baseband samples."""
        samples = np.asarray(samples, dtype=complex)
        amplified = samples * self._gain_linear
        magnitude = np.abs(amplified)
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = 1.0 / (
                1.0 + (magnitude / self._v_sat) ** (2.0 * self.smoothness)
            ) ** (1.0 / (2.0 * self.smoothness))
        factor = np.where(magnitude == 0.0, 1.0, factor)
        return amplified * factor
