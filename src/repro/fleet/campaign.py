"""Sharded fleet-inventory campaigns: populations in, read-rate tables out.

:func:`run_fleet_campaign` sweeps the cells of a
:class:`FleetCampaignConfig` -- population size x depth band x array size
-- and inventories each cell's fleet shard by shard on a
:class:`~repro.runtime.runner.TrialRunner`. A shard is a fixed semantic
partition of the population (part of the :class:`FleetConfig`, never
derived from the worker count): the reader Select-masks one shard's tags
and runs the Q-adaptive rounds with capture-effect arbitration to
completion, then moves to the next shard. Shard results merge in shard
order, so every table is bit-identical for any ``workers`` /
``chunk_size`` combination -- the same contract the Monte-Carlo engine
and the degradation campaigns obey.

Each merged cell yields the results family of the paper's Sec. 3.7
scaling argument, quantified: tags read, missed-tag fraction (never
powered or never decoded), inventory airtime from the Gen2 primitive
timings, and the read rate in tags per second of airtime. Tables
serialize to a versioned JSON payload (:data:`FLEET_SCHEMA_VERSION`)
checked by :func:`validate_fleet_dict` and ``tools/check_obs_schema.py``
-- the CI fleet smoke asserts against it.
"""

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.plan import EMPTY_PLAN, FaultPlan
from repro.fleet.collision import (
    CaptureModel,
    ShardInventoryResult,
    run_inventory,
)
from repro.fleet.population import FleetConfig, generate_shard
from repro.obs.context import current_obs
from repro.runtime.runner import TrialRunner

FLEET_SCHEMA_VERSION = 1
"""Version tag of the fleet-table JSON payload."""

#: Maps the fleet's physical backscatter amplitudes (sub-microvolt at
#: depth) into the reader chain's input range so the averaged capture
#: sits in the regime where shallow tags decode cleanly, deep tags sit
#: near the noise floor, and collided slots resolve by capture. See
#: ``CaptureModel.amplitude_scale``.
DEFAULT_AMPLITUDE_SCALE = 1.0

_ROW_KEYS = (
    "population",
    "depth_min_m",
    "depth_max_m",
    "n_antennas",
    "n_powered",
    "reads",
    "missed_fraction",
    "missed_powered_fraction",
    "airtime_s",
    "read_rate_tags_per_s",
    "rounds",
    "slots",
    "collision_slots",
    "captures",
    "fleet_hash",
)


@dataclass(frozen=True)
class FleetCampaignConfig:
    """One fleet campaign: the cell grid plus everything cells share.

    Attributes:
        populations: Population sizes to sweep.
        depth_bands: ``(min_m, max_m)`` implant-depth bands to sweep.
        array_sizes: CIB array sizes to sweep.
        medium / standoff_m / eirp_per_antenna_w / tag: Shared physics,
            as in :class:`~repro.fleet.population.FleetConfig`.
        initial_q / max_rounds / session: Shared MAC parameters.
        n_shards: Shard count per fleet (clamped to the population).
        n_periods / samples_per_chip / min_attempt_sinr /
        amplitude_scale / stall_rounds: The cell's
            :class:`~repro.fleet.collision.CaptureModel`.
        blf_hz: Backscatter link frequency of the airtime model.
        seed: Root seed of every fleet in the campaign.
    """

    populations: Tuple[int, ...] = (10, 50, 200, 500)
    depth_bands: Tuple[Tuple[float, float], ...] = (
        (0.02, 0.06),
        (0.06, 0.10),
    )
    array_sizes: Tuple[int, ...] = (10,)
    medium: str = "muscle"
    standoff_m: float = 0.5
    eirp_per_antenna_w: float = 6.0
    tag: str = "standard"
    initial_q: int = 4
    max_rounds: int = 64
    session: int = 2
    n_shards: int = 4
    n_periods: int = 8
    samples_per_chip: int = 2
    min_attempt_sinr: float = 1.0
    amplitude_scale: float = DEFAULT_AMPLITUDE_SCALE
    stall_rounds: int = 8
    blf_hz: float = 40e3
    seed: int = 73

    def __post_init__(self) -> None:
        if not self.populations or any(p < 1 for p in self.populations):
            raise ConfigurationError(
                f"populations must be positive, got {self.populations}"
            )
        if not self.depth_bands or not self.array_sizes:
            raise ConfigurationError(
                "need at least one depth band and one array size"
            )
        if not 0 < self.blf_hz < math.inf:
            raise ConfigurationError(
                f"blf_hz must be positive and finite, got {self.blf_hz}"
            )
        # Every cell's fleet and the capture model validate their own
        # physics here, in the caller, rather than later in a pool worker.
        for cell in self.cells():
            self.fleet_config(*cell)
        self.capture_model()

    @classmethod
    def fast(cls) -> "FleetCampaignConfig":
        """A CI-sized campaign: two small populations, one band."""
        return cls(
            populations=(8, 24),
            depth_bands=((0.02, 0.06),),
            array_sizes=(10,),
            n_shards=2,
            max_rounds=32,
        )

    def capture_model(self) -> CaptureModel:
        return CaptureModel(
            n_periods=self.n_periods,
            samples_per_chip=self.samples_per_chip,
            min_attempt_sinr=self.min_attempt_sinr,
            amplitude_scale=self.amplitude_scale,
            stall_rounds=self.stall_rounds,
        )

    def fleet_config(
        self, population: int, depth_band: Tuple[float, float], n_antennas: int
    ) -> FleetConfig:
        """The :class:`FleetConfig` of one cell."""
        return FleetConfig(
            n_tags=population,
            depth_min_m=depth_band[0],
            depth_max_m=depth_band[1],
            medium=self.medium,
            standoff_m=self.standoff_m,
            n_antennas=n_antennas,
            eirp_per_antenna_w=self.eirp_per_antenna_w,
            tag=self.tag,
            initial_q=self.initial_q,
            max_rounds=self.max_rounds,
            session=self.session,
            n_shards=min(self.n_shards, population),
            seed=self.seed,
        )

    def cells(self) -> List[Tuple[int, Tuple[float, float], int]]:
        """The sweep grid, in deterministic row order."""
        return [
            (population, band, n_antennas)
            for population in self.populations
            for band in self.depth_bands
            for n_antennas in self.array_sizes
        ]


@dataclass
class FleetTable:
    """Merged campaign results: one row per (population, band, array) cell.

    Rows are plain dicts with the :data:`_ROW_KEYS` fields, in
    :meth:`FleetCampaignConfig.cells` order.
    """

    config: FleetCampaignConfig
    rows: List[Dict]

    def table(self):
        """Render as a :class:`repro.experiments.report.Table`."""
        # Local import: report lives under repro.experiments, whose
        # package init imports the fleet experiment, which imports this.
        from repro.experiments.report import Table

        table = Table(
            title=(
                "Fleet inventory: capture-effect Gen2 arbitration at "
                "population scale"
            ),
            headers=(
                "tags",
                "depth (cm)",
                "antennas",
                "powered",
                "read",
                "missed",
                "airtime (s)",
                "tags/s",
                "captures",
            ),
        )
        for row in self.rows:
            table.add_row(
                row["population"],
                f"{row['depth_min_m'] * 100:.0f}-"
                f"{row['depth_max_m'] * 100:.0f}",
                row["n_antennas"],
                row["n_powered"],
                row["reads"],
                f"{row['missed_fraction']:.3f}",
                f"{row['airtime_s']:.3f}",
                f"{row['read_rate_tags_per_s']:.1f}",
                row["captures"],
            )
        return table

    def to_json_dict(self) -> dict:
        """Versioned JSON payload (the CI-validated schema)."""
        return {
            "schema_version": FLEET_SCHEMA_VERSION,
            "config": asdict(self.config),
            "rows": [dict(row) for row in self.rows],
        }


def validate_fleet_dict(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid fleet table."""
    if not isinstance(payload, dict):
        raise ValueError(f"fleet payload must be a dict, got {type(payload)}")
    version = payload.get("schema_version")
    if version != FLEET_SCHEMA_VERSION:
        raise ValueError(
            f"schema_version must be {FLEET_SCHEMA_VERSION}, got {version}"
        )
    config = payload.get("config")
    if not isinstance(config, dict) or "populations" not in config:
        raise ValueError("config must be a dict with campaign fields")
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ValueError("rows must be a non-empty list")
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"row {index} must be a dict, got {type(row)}")
        missing = [key for key in _ROW_KEYS if key not in row]
        if missing:
            raise ValueError(f"row {index} missing keys: {missing}")
        for key in _ROW_KEYS:
            if key == "fleet_hash":
                if not isinstance(row[key], str) or not row[key]:
                    raise ValueError(
                        f"row {index}: fleet_hash must be a non-empty string"
                    )
            elif not isinstance(row[key], (int, float)):
                raise ValueError(f"row {index}: {key} must be a number")
        for key in ("missed_fraction", "missed_powered_fraction"):
            if not 0.0 <= row[key] <= 1.0:
                raise ValueError(
                    f"row {index}: {key} must be in [0, 1], got {row[key]}"
                )
        if row["reads"] > row["population"]:
            raise ValueError(
                f"row {index}: reads {row['reads']} exceeds population "
                f"{row['population']}"
            )
        for key in ("read_rate_tags_per_s", "airtime_s"):
            # `not 0 <= x < inf` also rejects NaN, for which `x < 0` is
            # false.
            if not 0.0 <= row[key] < math.inf:
                raise ValueError(
                    f"row {index}: {key} must be finite and >= 0, got "
                    f"{row[key]}"
                )


def shard_airtime_s(result: ShardInventoryResult, blf_hz: float) -> float:
    """Gen2 airtime of one shard's inventory, from its per-slot records.

    Accumulates in the legacy throughput experiment's order -- one Query
    per round, then every slot at its physical outcome kind: a decoded
    slot carries the full singleton exchange (RN16 + ACK + EPC); an
    occupied slot that failed to decode costs a collision (RN16 heard, no
    ACK) whether one tag replied or five. The four primitive airtimes are
    computed once and added one term at a time, left to right, so the
    total rounds exactly as a per-slot ``AirtimeModel`` loop does.
    """
    # Local import: AirtimeModel lives in repro.experiments, whose
    # package init imports the fleet experiment, which imports this.
    from repro.experiments.inventory_throughput import AirtimeModel

    model = AirtimeModel(blf_hz=blf_hz)
    query_s = model.query_s()
    empty_s, collision_s, singleton_s = (
        model.slot_s(kind) for kind in ("empty", "collision", "singleton")
    )
    total = 0.0
    for outcome in result.rounds:
        total += query_s
        for count, decoded in zip(
            outcome.n_replies.tolist(), outcome.decoded.tolist()
        ):
            if count == 0:
                total += empty_s
            elif decoded:
                total += singleton_s
            else:
                total += collision_s
    return total


def _shard_chunk(
    start: int,
    count: int,
    fleet: FleetConfig,
    capture: CaptureModel,
    fault_plan: FaultPlan,
    blf_hz: float,
) -> List[Dict]:
    """Inventory shards ``[start, start + count)`` of one fleet.

    Module-level and bound with :func:`functools.partial`, hence
    picklable for the process pool. Every quantity derives from the
    fleet config and absolute shard indices, so results are identical
    for any chunking.
    """
    obs = current_obs()
    payloads: List[Dict] = []
    for shard in range(start, start + count):
        with obs.stage_span(
            "fleet.shard", shard=shard, fleet=fleet.stable_hash()
        ):
            tag_set = generate_shard(fleet, shard, fault_plan=fault_plan)
            result = run_inventory(
                tag_set,
                capture,
                initial_q=fleet.initial_q,
                max_rounds=fleet.max_rounds,
                session=fleet.session,
                seed_material=fleet.seed_material(),
                seed=fleet.seed,
                shard_index=shard,
                fault_plan=fault_plan,
            )
            payloads.append(
                {
                    "shard": shard,
                    "n_tags": result.n_tags,
                    "n_powered": result.n_powered,
                    "reads": result.reads,
                    "read_order": list(result.read_order),
                    "rounds": len(result.rounds),
                    "slots": result.slots_used,
                    "collision_slots": result.n_collisions,
                    "captures": result.n_captures,
                    "airtime_s": shard_airtime_s(result, blf_hz),
                }
            )
    obs.metrics.counter("fleet.shards").inc(count)
    return payloads


def _merge_cell(
    fleet: FleetConfig,
    depth_band: Tuple[float, float],
    shard_payloads: List[Dict],
) -> Dict:
    """Fold one cell's shard payloads into its table row (shard order)."""
    reads = sum(p["reads"] for p in shard_payloads)
    n_powered = sum(p["n_powered"] for p in shard_payloads)
    airtime = sum(p["airtime_s"] for p in shard_payloads)
    return {
        "population": fleet.n_tags,
        "depth_min_m": depth_band[0],
        "depth_max_m": depth_band[1],
        "n_antennas": fleet.n_antennas,
        "n_powered": n_powered,
        "reads": reads,
        "missed_fraction": (fleet.n_tags - reads) / fleet.n_tags,
        "missed_powered_fraction": (
            (n_powered - reads) / n_powered if n_powered else 0.0
        ),
        "airtime_s": airtime,
        "read_rate_tags_per_s": reads / airtime if airtime > 0 else 0.0,
        "rounds": sum(p["rounds"] for p in shard_payloads),
        "slots": sum(p["slots"] for p in shard_payloads),
        "collision_slots": sum(
            p["collision_slots"] for p in shard_payloads
        ),
        "captures": sum(p["captures"] for p in shard_payloads),
        "fleet_hash": fleet.stable_hash(),
    }


def run_fleet_campaign(
    config: FleetCampaignConfig = FleetCampaignConfig(),
    workers: int = 1,
    chunk_size: Optional[int] = None,
    fault_plan: FaultPlan = EMPTY_PLAN,
) -> FleetTable:
    """Sweep the campaign grid, sharding each cell across the runner.

    Shards are the unit of fan-out (``n_trials = n_shards`` per cell);
    the merge happens in shard order, so the returned table -- including
    its JSON serialization -- is bitwise identical for any ``workers`` /
    ``chunk_size`` combination.
    """
    obs = current_obs()
    runner = TrialRunner(workers=workers, chunk_size=chunk_size)
    capture = config.capture_model()
    rows: List[Dict] = []
    with runner, obs.tracer.span(
        "fleet.campaign",
        n_cells=len(config.cells()),
        workers=workers,
    ):
        for population, band, n_antennas in config.cells():
            fleet = config.fleet_config(population, band, n_antennas)
            with obs.stage_span(
                "fleet.cell",
                population=population,
                depth_min_m=band[0],
                depth_max_m=band[1],
                n_antennas=n_antennas,
                fleet=fleet.stable_hash(),
            ):
                chunk_fn = partial(
                    _shard_chunk,
                    fleet=fleet,
                    capture=capture,
                    fault_plan=fault_plan,
                    blf_hz=config.blf_hz,
                )
                chunks = runner.map_chunks(
                    chunk_fn, fleet.n_shards, label="fleet.shard_chunk"
                )
                shard_payloads = [p for chunk in chunks for p in chunk]
            rows.append(_merge_cell(fleet, band, shard_payloads))
            obs.metrics.counter("fleet.cells").inc()
    return FleetTable(config=config, rows=rows)
