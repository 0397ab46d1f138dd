"""Extension experiment: fleet-scale inventorying of implant populations.

The capture-effect counterpart of the ``throughput`` experiment: instead
of idealized arbitration over abstract tags, a
:class:`~repro.fleet.campaign.FleetCampaignConfig` sweep realizes whole
implant fleets in a phantom (depths, harvested power, backscatter
amplitudes) and inventories them shard by shard through the physical
collision resolver. The table reports, per (population, depth band,
array size) cell: how many tags powered up, how many were read, the
missed-tag fraction, the Gen2 airtime, and the read rate.

Results serialize via ``to_json_dict`` into the versioned fleet schema,
which ``--tables-out`` exports and ``tools/check_obs_schema.py --tables``
validates in CI. Tables are bit-identical for any ``--workers`` value.
"""

from dataclasses import dataclass, field
from typing import Optional

from repro.fleet.campaign import (
    FleetCampaignConfig,
    FleetTable,
    run_fleet_campaign,
)


@dataclass(frozen=True)
class FleetExperimentConfig:
    """CLI-facing wrapper: the campaign grid plus runner overrides."""

    campaign: FleetCampaignConfig = field(default_factory=FleetCampaignConfig)
    workers: int = 1
    chunk_size: Optional[int] = None

    @classmethod
    def fast(cls) -> "FleetExperimentConfig":
        return cls(campaign=FleetCampaignConfig.fast())


@dataclass
class FleetExperimentResult:
    """Holds the merged campaign table (render + JSON export)."""

    fleet_table: FleetTable

    def table(self):
        return self.fleet_table.table()

    def to_json_dict(self) -> dict:
        return self.fleet_table.to_json_dict()


def run(
    config: FleetExperimentConfig = FleetExperimentConfig(),
) -> FleetExperimentResult:
    table = run_fleet_campaign(
        config.campaign,
        workers=config.workers,
        chunk_size=config.chunk_size,
    )
    return FleetExperimentResult(fleet_table=table)
