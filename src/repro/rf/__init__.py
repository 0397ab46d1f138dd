"""Radio front-end substrate: amplifiers, antennas and the receive chain."""

from repro.rf.amplifier import PowerAmplifier
from repro.rf.antenna import (
    Antenna,
    MINIATURE_TAG_ANTENNA,
    MT242025_PANEL,
    RFX900_MONITOR,
    STANDARD_TAG_ANTENNA,
)
from repro.rf.receiver import (
    AnalogToDigitalConverter,
    ReceiveChain,
    SawFilter,
    thermal_noise_power_watts,
)

__all__ = [
    "PowerAmplifier",
    "Antenna",
    "MINIATURE_TAG_ANTENNA",
    "MT242025_PANEL",
    "RFX900_MONITOR",
    "STANDARD_TAG_ANTENNA",
    "AnalogToDigitalConverter",
    "ReceiveChain",
    "SawFilter",
    "thermal_noise_power_watts",
]
