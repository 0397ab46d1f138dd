"""Energy-harvesting substrate: diodes, rectifiers, storage, power-up."""

from repro.harvester.diode import (
    DiodeModel,
    IdealDiode,
    ShockleyDiode,
    ThresholdDiode,
)
from repro.harvester.rectifier import (
    MultiStageRectifier,
    conduction_angle_rad,
    harvesting_efficiency,
    ideal_output_voltage,
)
from repro.harvester.storage import (
    PowerManager,
    operations_per_wakeup,
    stored_energy_j,
)
from repro.harvester.tag_power import (
    HarvesterFrontEnd,
    PowerUpResult,
    TagPowerModel,
)

__all__ = [
    "DiodeModel",
    "IdealDiode",
    "ShockleyDiode",
    "ThresholdDiode",
    "MultiStageRectifier",
    "conduction_angle_rad",
    "harvesting_efficiency",
    "ideal_output_voltage",
    "PowerManager",
    "operations_per_wakeup",
    "stored_energy_j",
    "HarvesterFrontEnd",
    "PowerUpResult",
    "TagPowerModel",
]
