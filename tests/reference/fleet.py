"""Scalar references of fleet generation, inventory and airtime.

:func:`generate_shard_reference` realizes a shard one tag at a time, with
one scalar Eq. 2 call per (tag, element) and one ``SeedSequence`` per tag
stream -- the per-tag loop :func:`repro.fleet.population.generate_shard`
batches. :func:`shard_airtime_reference` charges a shard's airtime one
``AirtimeModel`` call per slot. Both must agree with the batched paths
bit for bit.

:func:`run_inventory_reference` drives actual
:class:`~repro.gen2.tag_state.Gen2Tag` state machines slot by slot with
scalar receive (:func:`tests.reference.kernels.capture_response_scalar`)
and the scalar chip decoder. It consumes the same per-tag MAC streams and
per-slot decode streams as :func:`repro.fleet.collision.run_inventory`, so
the two return bitwise-identical outcomes; it is also the serial baseline
of the ``bench_fleet`` speedup gate.
"""

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import DecodingError, ProtocolError
from repro.faults.inject import FaultInjector
from repro.faults.plan import EMPTY_PLAN, FaultPlan
from repro.em import media as media_lib
from repro.em.channel import ARC_JITTER_FRACTION
from repro.em.propagation import tissue_field_amplitude
from repro.fleet.collision import (
    _DECODE_STREAM_TAG,
    RN16_CHIPS,
    CaptureModel,
    RoundOutcome,
    ShardInventoryResult,
    _decode_trial_index,
    _noise_after_averaging,
    _reader,
    _stop_state,
)
from repro.fleet.population import (
    _FLEET_STREAM_TAG,
    _STREAM_MAC,
    _STREAM_PHYSICS,
    TAG_ANTENNAS,
    FleetConfig,
    TagSet,
    shard_bounds,
)
from repro.harvester.tag_power import HarvesterFrontEnd, TagPowerModel
from repro.gen2.commands import Ack, Query, QueryRep
from repro.gen2.fm0 import (
    chips_to_waveform,
    decode_chips,
    encode_chips,
    waveform_to_chips,
)
from repro.gen2.inventory import QAlgorithm
from repro.gen2.tag_state import Gen2Tag
from repro.obs.context import current_obs
from repro.reader.out_of_band import backscatter_amplitude_v
from tests.reference.kernels import capture_response_scalar
from tests.reference.measurement import input_voltage_reference


def _tag_rng(
    seed_material: int, seed: int, tag_index: int, stream: int
) -> np.random.Generator:
    sequence = np.random.SeedSequence(
        [
            _FLEET_STREAM_TAG,
            seed_material,
            int(seed),
            int(tag_index),
            int(stream),
        ]
    )
    return np.random.default_rng(sequence)


def _decode_rng(
    seed_material: int,
    seed: int,
    shard_index: int,
    round_index: int,
    slot: int,
) -> np.random.Generator:
    """The decode-noise generator of one (shard, round, slot) triple."""
    sequence = np.random.SeedSequence(
        [
            _DECODE_STREAM_TAG,
            int(seed_material),
            int(seed),
            int(shard_index),
            int(round_index),
            int(slot),
        ]
    )
    return np.random.default_rng(sequence)


def generate_shard_reference(
    config: FleetConfig,
    shard: int,
    fault_plan: FaultPlan = EMPTY_PLAN,
) -> TagSet:
    """Per-tag loop of fleet generation: scalar Eq. 2, one stream per tag.

    Each tag draws its depth and arc jitter with ``Generator.uniform``,
    the draws the batched path replaces with one ``random`` call per tag.
    """
    lo, hi = shard_bounds(config, shard)
    n = hi - lo
    medium = media_lib.get_medium(config.medium)
    antenna = TAG_ANTENNAS[config.tag]
    front_end = HarvesterFrontEnd(antenna=antenna)
    model = TagPowerModel(front_end)
    injector = FaultInjector(fault_plan, config.seed)
    aperture = front_end.effective_aperture_in(medium, config.frequency_hz)
    material = config.seed_material()

    epc_bits = np.empty((n, 96), dtype=int)
    depths = np.empty(n)
    voltages = np.empty(n)
    amplitudes = np.empty(n)
    powered = np.empty(n, dtype=bool)
    mac_rngs: List[np.random.Generator] = []

    for row, tag_index in enumerate(range(lo, hi)):
        rng = _tag_rng(material, config.seed, tag_index, _STREAM_PHYSICS)
        depth = float(
            rng.uniform(config.depth_min_m, config.depth_max_m)
        )
        distances = config.standoff_m * (
            1.0
            + rng.uniform(
                -ARC_JITTER_FRACTION,
                ARC_JITTER_FRACTION,
                size=config.n_antennas,
            )
        )
        epc_bits[row] = rng.integers(0, 2, size=96)

        element_fields = np.array(
            [
                tissue_field_amplitude(
                    config.eirp_per_antenna_w,
                    float(r),
                    depth,
                    medium,
                    config.frequency_hz,
                )
                for r in distances
            ]
        )
        element_scale = np.ones(config.n_antennas)
        perturbed = injector.perturb_trial(
            tag_index,
            np.zeros(config.n_antennas),
            np.zeros(config.n_antennas),
            element_scale,
        )
        peak_field = float(np.sum(element_fields * perturbed.amplitudes))
        voltage = input_voltage_reference(
            front_end, peak_field, medium, config.frequency_hz
        )
        voltage *= perturbed.voltage_scale
        forward_gain = float(
            np.max(
                element_fields
                / math.sqrt(60.0 * config.eirp_per_antenna_w)
            )
        )
        depths[row] = depth
        voltages[row] = voltage
        powered[row] = model.powers_up_at_peak(voltage)
        amplitudes[row] = backscatter_amplitude_v(forward_gain, aperture)
        mac_rngs.append(
            _tag_rng(material, config.seed, tag_index, _STREAM_MAC)
        )

    return TagSet(
        epc_bits=epc_bits,
        reply_amplitude_v=amplitudes,
        powered=powered,
        mac_rngs=mac_rngs,
        global_indices=np.arange(lo, hi),
        depths_m=depths,
        input_voltage_v=voltages,
    )


def _airtime_kind(outcome: RoundOutcome, slot: int) -> str:
    """Outcome label the physical airtime model charges for.

    A decoded slot carries the full singleton exchange (RN16 + ACK +
    EPC); an occupied slot that failed to decode costs a collision
    (RN16 heard, no ACK) whether one tag replied or five.
    """
    count = int(outcome.n_replies[slot])
    if count == 0:
        return "empty"
    return "singleton" if bool(outcome.decoded[slot]) else "collision"


def shard_airtime_reference(
    result: ShardInventoryResult, blf_hz: float
) -> float:
    """Per-slot airtime loop: one Query per round, then each slot's kind."""
    from repro.experiments.inventory_throughput import AirtimeModel

    model = AirtimeModel(blf_hz=blf_hz)
    total = 0.0
    for outcome in result.rounds:
        total += model.query_s()
        for slot in range(outcome.n_replies.size):
            total += model.slot_s(_airtime_kind(outcome, slot))
    return total


def run_inventory_reference(
    tags: TagSet,
    capture: Optional[CaptureModel] = None,
    *,
    initial_q: int = 4,
    max_rounds: int = 64,
    session: int = 0,
    seed_material: int = 0,
    seed: int = 0,
    shard_index: int = 0,
    fault_plan: FaultPlan = EMPTY_PLAN,
) -> ShardInventoryResult:
    """Scalar reference resolver: real Gen2Tag machines, slot by slot.

    Each round issues an actual ``Query`` and walks every slot with
    ``QueryRep`` against :class:`~repro.gen2.tag_state.Gen2Tag` objects
    sharing the vectorized path's per-tag generators; attempted slots
    run the pinned scalar receive loop and the scalar chip decoder.
    """
    obs = current_obs()
    n = tags.n_tags
    algorithm = QAlgorithm(initial_q=initial_q)
    injector = FaultInjector(fault_plan, seed)
    reader = _reader() if capture is not None else None
    noise_avg = (
        _noise_after_averaging(reader, capture.n_periods)
        if capture is not None
        else 0.0
    )
    scale = capture.amplitude_scale if capture is not None else 1.0

    objs = []
    for row in range(n):
        tag = Gen2Tag(tuple(int(b) for b in tags.epc_bits[row]), tags.mac_rngs[row])
        if tags.powered[row]:
            tag.power_up()
        objs.append(tag)

    result = ShardInventoryResult(
        shard=shard_index,
        n_tags=n,
        n_powered=int(np.count_nonzero(tags.powered)),
    )
    stalled = 0
    with obs.stage_span(
        "fleet.inventory", shard=shard_index, tags=n, mode="reference"
    ):
        for round_index in range(max_rounds):
            q = algorithm.q
            n_slots = 2**q
            query = Query(session=session, target="A", q=q)
            counts = np.zeros(n_slots, dtype=np.int32)
            decoded_slots = np.zeros(n_slots, dtype=bool)
            winners = np.full(n_slots, -1, dtype=np.int64)
            round_had_success = False
            for slot in range(n_slots):
                repliers: List[Tuple[int, Tuple[int, ...]]] = []
                if slot == 0:
                    for row, tag in enumerate(objs):
                        reply = tag.handle_query(query)
                        if reply is not None:
                            repliers.append((row, reply.bits))
                else:
                    query_rep = QueryRep(session=session)
                    for row, tag in enumerate(objs):
                        reply = tag.handle_query_rep(query_rep)
                        if reply is not None:
                            repliers.append((row, reply.bits))
                counts[slot] = len(repliers)
                if not repliers:
                    algorithm.on_slot(0)
                    continue
                winner_row, winner_bits = max(
                    repliers,
                    key=lambda item: (
                        tags.reply_amplitude_v[item[0]] * scale,
                        -item[0],
                    ),
                )
                if capture is None:
                    success = len(repliers) == 1
                else:
                    success = _scalar_decode_attempt(
                        capture,
                        reader,
                        injector,
                        noise_avg,
                        repliers,
                        winner_row,
                        winner_bits,
                        tags.reply_amplitude_v,
                        scale,
                        slot,
                        seed_material,
                        seed,
                        shard_index,
                        round_index,
                        max_rounds,
                    )
                if success:
                    epc_reply = objs[winner_row].handle_ack(
                        Ack(rn16=winner_bits)
                    )
                    assert epc_reply is not None
                    decoded_slots[slot] = True
                    winners[slot] = int(tags.global_indices[winner_row])
                    result.read_order.append(int(winners[slot]))
                    round_had_success = True
                if capture is None:
                    algorithm.on_slot(len(repliers))
                else:
                    algorithm.on_slot(
                        1 if success else max(len(repliers), 2)
                    )
            result.rounds.append(
                RoundOutcome(
                    q=q,
                    n_replies=counts,
                    decoded=decoded_slots,
                    winners=winners,
                )
            )
            # Every active tag replies within its round (slot < 2**q), so
            # a reply-free round means nobody is left: the quiet round.
            had_replies = bool(np.any(counts > 0))
            stalled = _stop_state(had_replies, round_had_success, stalled)
            if not had_replies:
                break
            if capture is not None and stalled >= capture.stall_rounds:
                break

    obs.metrics.counter("fleet.reference_reads").inc(result.reads)
    return result


def _scalar_decode_attempt(
    capture: CaptureModel,
    reader,
    injector: FaultInjector,
    noise_avg: float,
    repliers: List[Tuple[int, Tuple[int, ...]]],
    winner_row: int,
    winner_bits: Tuple[int, ...],
    amplitudes: np.ndarray,
    scale: float,
    slot: int,
    seed_material: int,
    seed: int,
    shard_index: int,
    round_index: int,
    max_rounds: int,
) -> bool:
    """One slot's decode attempt on the scalar path."""
    spc = capture.samples_per_chip
    amp_w = float(amplitudes[winner_row]) * scale
    total_power = sum(
        (float(amplitudes[row]) * scale) ** 2 for row, _ in repliers
    )
    interference = max(total_power - amp_w**2, 0.0)
    sinr = amp_w / math.sqrt(interference + noise_avg**2)
    if sinr < capture.min_attempt_sinr:
        return False
    composite = np.zeros(RN16_CHIPS * spc)
    for row, bits in repliers:  # ascending row: global tag order
        composite += (float(amplitudes[row]) * scale) * chips_to_waveform(
            encode_chips(tuple(bits)), spc
        )
    rng = _decode_rng(seed_material, seed, shard_index, round_index, slot)
    received = capture_response_scalar(
        reader, composite, 1.0, capture.n_periods, rng
    ).waveform
    if injector.active:
        received = injector.corrupt_waveform(
            _decode_trial_index(shard_index, round_index, slot, max_rounds),
            received,
            spc,
        )
    try:
        decoded = decode_chips(waveform_to_chips(received, spc))
    except (DecodingError, ProtocolError):
        return False
    return decoded == tuple(winner_bits)
