"""The paper's core contribution: coherently-incoherent beamforming (CIB)."""

from repro.core.plan import CarrierPlan, paper_plan, single_antenna_plan
from repro.core.constraints import (
    FlatnessConstraint,
    validate_cyclic,
    validate_plan,
)
from repro.core.optimizer import (
    FrequencyOptimizer,
    OptimizationResult,
    SearchConfig,
    peak_amplitudes_fft,
)
from repro.core.baselines import (
    BeamsteeringTransmitter,
    BlindSameFrequencyTransmitter,
    CIBTransmitter,
    OracleMRTTransmitter,
    SingleAntennaTransmitter,
    TransmitterStrategy,
    peak_power_gain,
)
from repro.core.scheduler import (
    DutyCycleScheduler,
    QueryWindow,
    TwoStageController,
)
from repro.core.multisensor import MultiSensorScheduler, SensorDescriptor
from repro.core.discovery import (
    DiscoveryObservation,
    DiscoveryOutcome,
    DiscoveryProcedure,
)
from repro.core.hopping import (
    AdaptiveHopper,
    BandStatistics,
    DEFAULT_BANDS_HZ,
    static_mean_reward,
)
from repro.core import waveform

__all__ = [
    "CarrierPlan",
    "paper_plan",
    "single_antenna_plan",
    "FlatnessConstraint",
    "validate_cyclic",
    "validate_plan",
    "FrequencyOptimizer",
    "OptimizationResult",
    "SearchConfig",
    "peak_amplitudes_fft",
    "BeamsteeringTransmitter",
    "BlindSameFrequencyTransmitter",
    "CIBTransmitter",
    "OracleMRTTransmitter",
    "SingleAntennaTransmitter",
    "TransmitterStrategy",
    "peak_power_gain",
    "DutyCycleScheduler",
    "QueryWindow",
    "TwoStageController",
    "MultiSensorScheduler",
    "SensorDescriptor",
    "DiscoveryObservation",
    "DiscoveryOutcome",
    "DiscoveryProcedure",
    "AdaptiveHopper",
    "BandStatistics",
    "DEFAULT_BANDS_HZ",
    "static_mean_reward",
    "waveform",
]
