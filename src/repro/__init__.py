"""IVN (In-Vivo Networking) reproduction.

A full-system reproduction of *Enabling Deep-Tissue Networking for
Miniature Medical Devices* (SIGCOMM 2018): coherently-incoherent
beamforming (CIB) for powering and communicating with battery-free
sensors through deep tissue, plus every substrate the evaluation needs --
tissue propagation, energy harvesting, the EPC Gen2 backscatter stack,
PA, antenna and receiver front-end models, and the out-of-band reader.
The sample-level SDR chain that stands in for the USRP array is a test
oracle (``tests/reference/sdr.py``) for the CIB envelope model, not part
of the package.

Quickstart::

    import numpy as np
    from repro import paper_plan, CIBTransmitter, peak_power_gain
    from repro.em import WaterTankPhantom

    rng = np.random.default_rng(0)
    tank = WaterTankPhantom()
    channel = tank.channel(n_antennas=10, depth_m=0.10, frequency_hz=915e6)
    gain = peak_power_gain(CIBTransmitter(paper_plan()), channel.realize(rng), rng)
"""

from repro.constants import (
    CIB_CENTER_FREQUENCY_HZ,
    CIB_PERIOD_S,
    PAPER_DELTA_F_HZ,
    PAPER_PREAMBLE_BITS,
    READER_CARRIER_FREQUENCY_HZ,
)
from repro.errors import (
    CalibrationError,
    ConfigurationError,
    ConstraintViolationError,
    DecodingError,
    ProtocolError,
    ReproError,
)
from repro.core import (
    BeamsteeringTransmitter,
    BlindSameFrequencyTransmitter,
    CarrierPlan,
    CIBTransmitter,
    DutyCycleScheduler,
    FlatnessConstraint,
    FrequencyOptimizer,
    MultiSensorScheduler,
    OptimizationResult,
    OracleMRTTransmitter,
    SensorDescriptor,
    SingleAntennaTransmitter,
    TwoStageController,
    paper_plan,
    peak_power_gain,
    single_antenna_plan,
)
from repro.reader import IvnLink, LinkTrialResult, OutOfBandReader
from repro.sensors import (
    BatteryFreeSensor,
    TagSpec,
    miniature_tag_spec,
    standard_tag_spec,
)

__version__ = "1.0.0"

__all__ = [
    "CIB_CENTER_FREQUENCY_HZ",
    "CIB_PERIOD_S",
    "PAPER_DELTA_F_HZ",
    "PAPER_PREAMBLE_BITS",
    "READER_CARRIER_FREQUENCY_HZ",
    "CalibrationError",
    "ConfigurationError",
    "ConstraintViolationError",
    "DecodingError",
    "ProtocolError",
    "ReproError",
    "BeamsteeringTransmitter",
    "BlindSameFrequencyTransmitter",
    "CarrierPlan",
    "CIBTransmitter",
    "DutyCycleScheduler",
    "FlatnessConstraint",
    "FrequencyOptimizer",
    "MultiSensorScheduler",
    "OptimizationResult",
    "OracleMRTTransmitter",
    "SensorDescriptor",
    "SingleAntennaTransmitter",
    "TwoStageController",
    "paper_plan",
    "peak_power_gain",
    "single_antenna_plan",
    "IvnLink",
    "LinkTrialResult",
    "OutOfBandReader",
    "BatteryFreeSensor",
    "TagSpec",
    "miniature_tag_spec",
    "standard_tag_spec",
    "__version__",
]
