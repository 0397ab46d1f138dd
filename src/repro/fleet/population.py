"""Deterministic implant-fleet generation.

A :class:`FleetConfig` describes a population of battery-free implants in
a phantom: how many tags, the depth band they occupy, the medium, the
array illuminating them. :func:`generate_shard` realizes one shard of
that population as plain arrays -- per-tag depth, harvested input
voltage, powered mask, and backscatter amplitude at the reader -- plus
the per-tag MAC generators the collision resolver draws slot counters and
RN16s from.

Determinism contract: every per-tag quantity derives from a
``SeedSequence`` keyed on ``(fleet tag, config hash, seed, global tag
index)``, so tag *i* is the same implant no matter which shard, chunk, or
worker realizes it, and the whole fleet is hash-stable and
cache-tokenable exactly like a :class:`~repro.faults.plan.FaultPlan`.

The physics follows the paper's pipeline: Eq. 2 gives each array
element's field at the tag through air plus tissue, the constructive-
alignment instant sums the per-element amplitudes (the CIB peak), Eq. 3
plus the matched front-end turn that into the rectifier input voltage,
and the Eq. 1 threshold decides power-up. The uplink side reuses the
out-of-band reader's two-way backscatter budget, which is what gives
deeper tags exponentially weaker replies -- the power asymmetry that
makes capture-effect arbitration matter.
"""

import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.mc import iter_keyed_rngs, keyed_rngs
from repro.constants import CIB_CENTER_FREQUENCY_HZ
from repro.em import media as media_lib
from repro.em.channel import arc_array_distances
from repro.em.propagation import field_scale, field_transmittance
from repro.errors import ConfigurationError
from repro.faults.inject import FaultInjector
from repro.faults.plan import EMPTY_PLAN, FaultPlan
from repro.harvester.tag_power import HarvesterFrontEnd, TagPowerModel
from repro.hashing import stable_digest
from repro.reader.out_of_band import backscatter_amplitude_v
from repro.rf.antenna import MINIATURE_TAG_ANTENNA, STANDARD_TAG_ANTENNA

_FLEET_STREAM_TAG = 0x0F1EE7
"""Domain-separation tag: fleet streams never collide with trial or fault
generators."""

_STREAM_PHYSICS = 0
_STREAM_MAC = 1
"""Per-tag sub-streams: placement/EPC draws and MAC draws are separated so
adding a physics draw can never shift a slot-counter draw."""

TAG_ANTENNAS = {
    "standard": STANDARD_TAG_ANTENNA,
    "miniature": MINIATURE_TAG_ANTENNA,
}


@dataclass(frozen=True)
class FleetConfig:
    """One implant fleet, fully determined by its field values.

    Attributes:
        n_tags: Population size.
        depth_min_m / depth_max_m: Uniform depth band the tags occupy.
        medium: Tissue filling the phantom (a ``repro.em.media`` name).
        standoff_m: Array standoff from the phantom boundary.
        n_antennas: CIB array size.
        frequency_hz: Beamformer center frequency.
        eirp_per_antenna_w: Per-element EIRP.
        tag: ``"standard"`` or ``"miniature"`` implant antenna.
        initial_q: Starting Q of every shard's inventory.
        max_rounds: Round cap per shard.
        session: Gen2 inventory session (2 by default: its inventoried
            flag persists through brief power loss, keeping
            time-to-inventory well-defined).
        n_shards: Fixed semantic partition of the population -- the
            reader inventories each shard separately (a Select-mask
            sub-population). Part of the config, never derived from the
            worker count, so results are identical for any scheduling.
        seed: Root seed of every per-tag stream.
    """

    n_tags: int = 100
    depth_min_m: float = 0.02
    depth_max_m: float = 0.10
    medium: str = "muscle"
    standoff_m: float = 0.5
    n_antennas: int = 10
    frequency_hz: float = CIB_CENTER_FREQUENCY_HZ
    eirp_per_antenna_w: float = 6.0
    tag: str = "standard"
    initial_q: int = 4
    max_rounds: int = 64
    session: int = 2
    n_shards: int = 4
    seed: int = 73

    def __post_init__(self) -> None:
        if self.n_tags < 1:
            raise ConfigurationError(
                f"n_tags must be >= 1, got {self.n_tags}"
            )
        if not 0 <= self.depth_min_m <= self.depth_max_m < math.inf:
            raise ConfigurationError(
                "depth band must satisfy 0 <= min <= max < inf, got "
                f"[{self.depth_min_m}, {self.depth_max_m}]"
            )
        if self.n_antennas < 1:
            raise ConfigurationError(
                f"n_antennas must be >= 1, got {self.n_antennas}"
            )
        # `not 0 < x < inf` also rejects NaN, which would otherwise flow
        # silently into every tag's field and reply amplitude.
        for name in ("standoff_m", "frequency_hz", "eirp_per_antenna_w"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {value}"
                )
        if self.tag not in TAG_ANTENNAS:
            raise ConfigurationError(
                f"tag must be one of {sorted(TAG_ANTENNAS)}, got {self.tag!r}"
            )
        if not 1 <= self.n_shards <= self.n_tags:
            raise ConfigurationError(
                f"n_shards must be in [1, n_tags], got {self.n_shards}"
            )
        if self.session not in (0, 1, 2, 3):
            raise ConfigurationError(
                f"session must be in 0..3, got {self.session}"
            )
        media_lib.get_medium(self.medium)  # validates the name

    def stable_hash(self) -> str:
        """sha256 of the canonical field dict (16 hex chars)."""
        return stable_digest(asdict(self), 16)

    def cache_token(self) -> str:
        """Cache-key component identifying this fleet."""
        return f"fleet:{self.stable_hash()}"

    def seed_material(self) -> int:
        """The hash as an integer, for SeedSequence keying."""
        return int(self.stable_hash(), 16)


def shard_bounds(config: FleetConfig, shard: int) -> Tuple[int, int]:
    """Global tag-index range ``[lo, hi)`` of one shard.

    Shards are contiguous, balanced partitions: the first ``n_tags %
    n_shards`` shards carry one extra tag. A function of the config
    alone -- never of workers or chunk size.
    """
    if not 0 <= shard < config.n_shards:
        raise ValueError(
            f"shard must be in [0, {config.n_shards}), got {shard}"
        )
    base, extra = divmod(config.n_tags, config.n_shards)
    lo = shard * base + min(shard, extra)
    hi = lo + base + (1 if shard < extra else 0)
    return lo, hi


@dataclass
class TagSet:
    """One shard's tags, realized as arrays plus per-tag MAC generators.

    The collision resolver is agnostic of where a TagSet came from: the
    fleet generator builds physical ones, and the ported throughput
    experiment builds idealized ones from its legacy seed tree.

    Attributes:
        epc_bits: ``(n, 96)`` EPC bits.
        reply_amplitude_v: ``(n,)`` backscatter amplitude at the reader.
        powered: ``(n,)`` power-up mask (unpowered tags never reply).
        mac_rngs: Per-tag generators for slot-counter and RN16 draws.
            :func:`repro.fleet.collision.run_inventory` draws from them
            in blocks of raw 32-bit words, so an inventory leaves each
            contending tag's generator advanced past the whole blocks it
            drew, not just the words the MAC used (a tag that never
            contends is left untouched). Rebuild the TagSet to replay a
            shard.
        global_indices: ``(n,)`` global tag indices (read-order identity).
        depths_m: ``(n,)`` implant depths.
        input_voltage_v: ``(n,)`` harvested rectifier input amplitude
            (after detuning faults).
    """

    epc_bits: np.ndarray
    reply_amplitude_v: np.ndarray
    powered: np.ndarray
    mac_rngs: List[np.random.Generator]
    global_indices: np.ndarray
    depths_m: np.ndarray
    input_voltage_v: np.ndarray

    @property
    def n_tags(self) -> int:
        return len(self.mac_rngs)


def generate_shard(
    config: FleetConfig,
    shard: int,
    fault_plan: FaultPlan = EMPTY_PLAN,
) -> TagSet:
    """Realize one shard of the fleet as a :class:`TagSet`.

    Per tag (in global-index order) draw its depth, array-placement
    jitter and EPC from its physics stream. Then, over the whole shard as
    ``(tags, elements)`` arrays, evaluate the Eq. 2 per-element fields and
    their aligned CIB sum, push the shard's peaks through the front end to
    the Eq. 1 power-up decision in one array call, and run the reader's
    two-way budget per tag for the uplink amplitude. Every value is bit-identical to the per-tag loop
    kept as ``tests/reference/fleet.py::generate_shard_reference``. Fault
    plans enter here exactly as in the degradation campaigns: antenna
    dropout zeroes per-element amplitudes, tag detuning scales the
    harvested voltage (both keyed on the global tag index, so a tag's
    faults follow it across any sharding).
    """
    lo, hi = shard_bounds(config, shard)
    n = hi - lo
    n_antennas = config.n_antennas
    medium = media_lib.get_medium(config.medium)
    antenna = TAG_ANTENNAS[config.tag]
    front_end = HarvesterFrontEnd(antenna=antenna)
    model = TagPowerModel(front_end)
    injector = FaultInjector(fault_plan, config.seed)
    aperture = front_end.effective_aperture_in(medium, config.frequency_hz)
    # Hashing the config is costly; every tag stream shares the material.
    prefix = (_FLEET_STREAM_TAG, config.seed_material(), config.seed)

    epc_bits = np.empty((n, 96), dtype=int)
    depths = np.empty(n)
    distances = np.empty((n, n_antennas))
    # Each physics stream is built, drawn from and dropped in turn, so the
    # shard never holds a second list of n generators beside mac_rngs.
    physics_rngs = iter_keyed_rngs(prefix, range(lo, hi), (_STREAM_PHYSICS,))
    for row, rng in enumerate(physics_rngs):
        depths[row] = rng.uniform(config.depth_min_m, config.depth_max_m)
        distances[row] = arc_array_distances(
            config.standoff_m, n_antennas, rng=rng
        )
        epc_bits[row] = rng.integers(0, 2, size=96)

    # Eq. 2 for every (tag, element) pair, in the operation order of
    # tissue_field_amplitude: free-space amplitude, boundary
    # transmittance, then the libm exp(-alpha d) decay of the tag's depth.
    element_fields = (
        math.sqrt(30.0 * config.eirp_per_antenna_w)
        / distances
        * math.sqrt(2.0)
    )
    if medium != media_lib.AIR:
        transmittance = field_transmittance(
            media_lib.AIR, medium, config.frequency_hz
        )
        alpha = medium.attenuation_np_per_m(config.frequency_hz)
        decay = np.array([math.exp(-alpha * d) for d in depths.tolist()])
        element_fields = element_fields * transmittance * decay[:, None]

    # Faults keyed on the global tag index: dropout zeroes per-element
    # amplitudes, detuning scales the harvested voltage.
    voltage_scales = np.ones(n)
    if injector.active:
        element_scale = np.empty((n, n_antennas))
        for row, tag_index in enumerate(range(lo, hi)):
            perturbed = injector.perturb_trial(
                tag_index,
                np.zeros(n_antennas),
                np.zeros(n_antennas),
                np.ones(n_antennas),
            )
            element_scale[row] = perturbed.amplitudes
            voltage_scales[row] = perturbed.voltage_scale
        surviving_fields = element_fields * element_scale
    else:
        surviving_fields = element_fields
    # Aligned CIB peak: the envelope sweeps through the constructive
    # instant once per beat period, where the field is the coherent
    # per-element amplitude sum (surviving elements only).
    peak_fields = np.sum(surviving_fields, axis=1)
    # One-way field gain of the strongest element, for the uplink
    # budget (the reader mounts on the closest array element).
    forward_gains = np.max(
        element_fields / field_scale(config.eirp_per_antenna_w), axis=1
    )

    voltages = (
        front_end.input_voltage_amplitude_v(
            peak_fields, medium, config.frequency_hz
        )
        * voltage_scales
    )
    amplitudes = np.array(
        [
            backscatter_amplitude_v(forward_gain, aperture)
            for forward_gain in forward_gains.tolist()
        ]
    )
    mac_rngs = keyed_rngs(prefix, range(lo, hi), (_STREAM_MAC,))

    return TagSet(
        epc_bits=epc_bits,
        reply_amplitude_v=amplitudes,
        powered=model.powers_up_at_peak(voltages),
        mac_rngs=mac_rngs,
        global_indices=np.arange(lo, hi),
        depths_m=depths,
        input_voltage_v=voltages,
    )
