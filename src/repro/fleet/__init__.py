"""Fleet-scale inventorying of dense implant populations.

The paper's IVN prototype adapts Gen2 firmware so *populations* of
in-body devices share one CIB reader (Sec. 3.7). This package couples the
Gen2 MAC in :mod:`repro.gen2` to the physical layer at population scale:

* :mod:`repro.fleet.population` -- deterministic implant-fleet generation:
  N tags at sampled depths in a phantom, per-tag harvested power and
  backscatter amplitude through :mod:`repro.em` + :mod:`repro.harvester`,
  every fleet hash-stable and cache-tokenable like a
  :class:`~repro.faults.plan.FaultPlan`.
* :mod:`repro.fleet.collision` -- a physical collision-slot resolver:
  capture-effect arbitration replaces "more than one reply means loss"
  with a strongest-reply SINR decode attempt per occupied slot, scored by
  the batched :func:`repro.kernels.capture_batch` receive and
  :func:`repro.kernels.fm0_block_errors` decode kernels, under
  :mod:`repro.faults` plans (dropout, detuning, bit corruption).
* :mod:`repro.fleet.campaign` -- a sharded campaign runner on
  :class:`~repro.runtime.runner.TrialRunner` producing the versioned
  read-rate / time-to-inventory / missed-tag-fraction results family.
"""

from repro.fleet.collision import (
    CaptureModel,
    ShardInventoryResult,
    run_inventory,
)
from repro.fleet.campaign import (
    FLEET_SCHEMA_VERSION,
    FleetCampaignConfig,
    FleetTable,
    run_fleet_campaign,
    validate_fleet_dict,
)
from repro.fleet.population import (
    FleetConfig,
    TagSet,
    generate_shard,
    shard_bounds,
)

__all__ = [
    "CaptureModel",
    "FLEET_SCHEMA_VERSION",
    "FleetCampaignConfig",
    "FleetConfig",
    "FleetTable",
    "ShardInventoryResult",
    "TagSet",
    "generate_shard",
    "run_fleet_campaign",
    "run_inventory",
    "shard_bounds",
    "validate_fleet_dict",
]
