"""Energy-harvesting substrate: Eq. 1, the front end and power-up."""

from repro.harvester.rectifier import (
    conduction_angle_rad,
    harvesting_efficiency,
    ideal_output_voltage,
)
from repro.harvester.tag_power import HarvesterFrontEnd, TagPowerModel

__all__ = [
    "conduction_angle_rad",
    "harvesting_efficiency",
    "ideal_output_voltage",
    "HarvesterFrontEnd",
    "TagPowerModel",
]
