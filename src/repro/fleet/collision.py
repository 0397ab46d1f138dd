"""Physical collision-slot resolution with capture-effect arbitration.

The seed MAC treated any slot with more than one reply as undecodable.
Real dense deployments do not behave that way: per-tag power asymmetry at
depth means the strongest reply in a collided slot often rides far above
the others, and the reader decodes it anyway -- the capture effect. This
module replaces reply counting with physics:

* Every replier's FM0-encoded RN16 enters the slot's composite waveform
  weighted by its backscatter amplitude at the reader.
* The composite passes through the out-of-band reader's receive chain
  (SAW, thermal noise, AGC + ADC, coherent averaging) through the
  stacked :func:`repro.kernels.capture_block` kernel.
* All of a round's averaged waveforms are stacked ``(slots, T)`` and
  decoded in a single :func:`repro.kernels.fm0_block_errors` call; a
  zero error count against the strongest replier's RN16 is a successful
  capture. Slots whose strongest-reply SINR sits below the attempt
  threshold are skipped outright (they cannot decode).

:func:`run_inventory` resolves these semantics vectorized: per round it
gathers every active tag's slot counter and RN16 from its own stream,
resolves all slots in stacked arrays, and loops only over decode
attempts. The MAC draws come in blocks (:class:`_MacWords`): a tag's
generator is called once for a block of raw 32-bit words when the tag
first contends and again only when it runs past that block, and each
round takes the next ``1 + 16`` words of every active tag in one
fancy-index. Slot ``word >> (32 - q)`` and RN16 bit ``word >> 31`` are
exactly what ``integers(0, 2**q)`` and ``integers(0, 2, size=16)`` would
have returned from the same stream: numpy's Lemire bound for a
power-of-two range never rejects, and both paths consume
``next_uint32`` one word per value (``q == 0`` draws no slot word).
Ties on reply amplitude break deterministically toward
the lowest global tag index. Its oracle, in ``tests/reference/``, drives
actual :class:`~repro.gen2.tag_state.Gen2Tag` state machines slot by slot
with scalar receive and decode -- the serial baseline the parity tests
and the ``bench_fleet`` speedup gate compare against. Both consume
identical randomness (per-tag MAC streams; per-slot decode streams keyed
on ``(fleet hash, seed, shard, round, slot)``), so their results are
bitwise identical.

Fault plans apply at both planes: dropout and detuning enter through
:func:`repro.fleet.population.generate_shard` (they shape the powered
mask and amplitudes), and ``bit_corruption`` corrupts each attempted
slot's averaged waveform ahead of the decoder, keyed on a deterministic
per-(shard, round, slot) trial index.

Reader-side MAC conventions (identical in the reference resolver): a
captured slot ACKs only the strongest replier -- the losers stay in REPLY
and rejoin at the next Query, exactly as the seed MAC left un-ACKed
colliders. For Q adaptation the reader scores what it observed: a
successful decode counts as a singleton, a failed decode with energy in
the slot counts as a collision (an invalid reply), and an empty slot
counts as empty. EPC decode after a successful RN16 exchange
is assumed clean (the ACK reply rides the same link at far higher SNR
than the contended RN16).
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.mc import keyed_rngs
from repro.errors import ConfigurationError
from repro.faults.inject import FaultInjector
from repro.faults.plan import EMPTY_PLAN, FaultPlan
from repro.gen2.fm0 import encode_chips_block
from repro.gen2.inventory import QAlgorithm
from repro.kernels import capture_block, fm0_block_errors
from repro.obs.context import current_obs
from repro.fleet.population import TagSet

_DECODE_STREAM_TAG = 0x0F1EE8
"""Domain separation for per-slot decode-noise streams: slot ``s`` of
round ``r`` of a shard draws from ``SeedSequence([_DECODE_STREAM_TAG,
seed_material, seed, shard, r, s])``, keyed on absolute coordinates, never
on evaluation order, so the vectorized and reference paths -- and any
worker schedule -- consume identical noise for the same slot."""

RN16_BITS = 16

#: Chips of one FM0 RN16 reply: 12-chip preamble + 2 * (16 bits + dummy).
RN16_CHIPS = 12 + 2 * (RN16_BITS + 1)


@dataclass(frozen=True)
class CaptureModel:
    """Physical parameters of the capture-effect arbitration.

    Attributes:
        n_periods: CIB periods coherently averaged per slot.
        samples_per_chip: Receiver oversampling of the FM0 chips.
        min_attempt_sinr: Amplitude-domain SINR below which the reader
            does not even attempt a decode (the capture threshold).
        amplitude_scale: Multiplier mapping the fleet's backscatter
            amplitudes into the receive chain's input range.
        stall_rounds: Stop an inventory after this many consecutive
            rounds with replies but no successful decode (tags pinned
            below the SINR floor would otherwise collide forever).
    """

    n_periods: int = 8
    samples_per_chip: int = 2
    min_attempt_sinr: float = 1.0
    amplitude_scale: float = 1.0
    stall_rounds: int = 8

    def __post_init__(self) -> None:
        if self.n_periods < 1:
            raise ConfigurationError(
                f"n_periods must be >= 1, got {self.n_periods}"
            )
        if self.samples_per_chip < 1:
            raise ConfigurationError(
                f"samples_per_chip must be >= 1, got {self.samples_per_chip}"
            )
        # `not 0 < x < inf` also rejects NaN, which would silently
        # skip every decode attempt.
        if not 0 < self.min_attempt_sinr < math.inf:
            raise ConfigurationError(
                f"min_attempt_sinr must be positive and finite, got "
                f"{self.min_attempt_sinr}"
            )
        if not 0 < self.amplitude_scale < math.inf:
            raise ConfigurationError(
                f"amplitude_scale must be positive and finite, got "
                f"{self.amplitude_scale}"
            )
        if self.stall_rounds < 1:
            raise ConfigurationError(
                f"stall_rounds must be >= 1, got {self.stall_rounds}"
            )


@dataclass
class RoundOutcome:
    """Per-slot record of one inventory round.

    Attributes:
        q: The Q the round ran with (``2**q`` slots).
        n_replies: ``(n_slots,)`` actual reply counts.
        decoded: ``(n_slots,)`` whether the reader got the RN16.
        winners: ``(n_slots,)`` global index of the read tag, or -1.
    """

    q: int
    n_replies: np.ndarray
    decoded: np.ndarray
    winners: np.ndarray


@dataclass
class ShardInventoryResult:
    """Merged outcome of inventorying one shard to completion.

    Attributes:
        shard: Shard index.
        n_tags / n_powered: Population and powered-up counts.
        rounds: Per-round slot records, in round order.
        read_order: Global tag indices in the order they were read.
    """

    shard: int
    n_tags: int
    n_powered: int
    rounds: List[RoundOutcome] = field(default_factory=list)
    read_order: List[int] = field(default_factory=list)

    @property
    def reads(self) -> int:
        return len(self.read_order)

    @property
    def slots_used(self) -> int:
        return sum(outcome.n_replies.size for outcome in self.rounds)

    @property
    def n_collisions(self) -> int:
        return sum(
            int(np.count_nonzero(outcome.n_replies > 1))
            for outcome in self.rounds
        )

    @property
    def n_captures(self) -> int:
        """Decoded slots that held more than one reply."""
        return sum(
            int(np.count_nonzero(outcome.decoded & (outcome.n_replies > 1)))
            for outcome in self.rounds
        )

    @property
    def n_failed_slots(self) -> int:
        """Occupied slots the reader could not decode."""
        return sum(
            int(np.count_nonzero(~outcome.decoded & (outcome.n_replies > 0)))
            for outcome in self.rounds
        )

    def signature(self) -> Tuple:
        """Hashable full-outcome fingerprint (parity / determinism tests)."""
        return (
            self.shard,
            self.n_tags,
            self.n_powered,
            tuple(self.read_order),
            tuple(
                (
                    outcome.q,
                    tuple(int(v) for v in outcome.n_replies),
                    tuple(bool(v) for v in outcome.decoded),
                    tuple(int(v) for v in outcome.winners),
                )
                for outcome in self.rounds
            ),
        )


class _MacWords:
    """Per-tag MAC streams drawn in blocks of raw 32-bit words.

    Row ``i`` of ``words`` holds tag ``i``'s drawn but not yet used words
    from ``cursor[i]`` on. A tag calls its generator only to (re)fill its
    row: the unused tail moves to the front and one ``integers(0, 2**32,
    dtype=uint32)`` call draws the rest, so the row stays one contiguous
    run of the tag's stream. Tags that never contend never draw.
    """

    #: Words per row: eight rounds of one slot word plus an RN16.
    BLOCK_WORDS = 8 * (1 + RN16_BITS)

    def __init__(self, rngs: List[np.random.Generator]):
        self.rngs = rngs
        self.words = np.empty((len(rngs), self.BLOCK_WORDS), dtype=np.uint32)
        self.cursor = np.full(len(rngs), self.BLOCK_WORDS, dtype=np.int64)

    def take(self, rows: np.ndarray, q: int) -> Tuple[np.ndarray, np.ndarray]:
        """Slot counters and RN16s of one round for tags ``rows``.

        Returns ``(slots, rn16s)`` shaped ``(m,)`` and ``(m, 16)`` -- per
        tag, the slot counter first, then the RN16 it backscatters when
        that counter expires: the Gen2Tag state machine's draw order.
        """
        need = RN16_BITS + (1 if q > 0 else 0)
        cursor = self.cursor
        width = self.BLOCK_WORDS
        for row in rows[cursor[rows] > width - need].tolist():
            start = cursor[row]
            kept = width - start
            self.words[row, :kept] = self.words[row, start:]
            self.words[row, kept:] = self.rngs[row].integers(
                0, 2**32, size=start, dtype=np.uint32
            )
            cursor[row] = 0
        columns = cursor[rows, None] + np.arange(need)
        drawn = self.words[rows[:, None], columns]
        cursor[rows] += need
        bits = (drawn[:, need - RN16_BITS :] >> 31).astype(np.int64)
        if q == 0:
            return np.zeros(rows.size, dtype=np.int64), bits
        return (drawn[:, 0] >> (32 - q)).astype(np.int64), bits


def _decode_trial_index(
    shard_index: int, round_index: int, slot: int, max_rounds: int
) -> int:
    """Deterministic fault-injection trial index of one decode attempt."""
    return (shard_index * max_rounds + round_index) * (2**16) + slot


def _reader():
    # Local import: reader.out_of_band imports repro.kernels, which is
    # fine, but constructing here keeps module import light for the
    # ideal-capture users (the throughput port) that never decode.
    from repro.reader.out_of_band import OutOfBandReader

    return OutOfBandReader()


def _noise_after_averaging(reader, n_periods: int) -> float:
    """Real-part noise RMS of the coherently averaged capture."""
    return reader.chain.noise_std() / math.sqrt(2.0) / math.sqrt(n_periods)


def _stop_state(round_had_replies: bool, round_had_success: bool, stalled: int) -> int:
    """Stall counter update (shared with the reference resolver)."""
    if not round_had_replies:
        return 0
    return 0 if round_had_success else stalled + 1


def run_inventory(
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
    """Inventory one shard with vectorized slot resolution.

    With ``capture=None`` the resolver reproduces the seed MAC's ideal
    arbitration exactly (singleton slots read, collided slots lost, Q
    fed the raw reply counts) -- the mode the ported throughput
    experiment pins against its legacy loop. With a
    :class:`CaptureModel` every occupied slot becomes a physical decode
    attempt as described in the module docstring.
    """
    del session  # one inventoried flag per run; kept for API symmetry.
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
    inventoried = np.zeros(n, dtype=bool)
    mac_words = _MacWords(tags.mac_rngs)
    result = ShardInventoryResult(
        shard=shard_index,
        n_tags=n,
        n_powered=int(np.count_nonzero(tags.powered)),
    )
    stalled = 0
    with obs.stage_span(
        "fleet.inventory", shard=shard_index, tags=n, mode="vectorized"
    ):
        for round_index in range(max_rounds):
            q = algorithm.q
            n_slots = 2**q
            active = np.flatnonzero(tags.powered & ~inventoried)
            if active.size == 0:
                # The quiet round: nobody participates, the reader walks
                # the slots, sees only empties, and concludes.
                counts = np.zeros(n_slots, dtype=np.int32)
                result.rounds.append(
                    RoundOutcome(
                        q=q,
                        n_replies=counts,
                        decoded=np.zeros(n_slots, dtype=bool),
                        winners=np.full(n_slots, -1, dtype=np.int64),
                    )
                )
                algorithm.on_slots(counts)
                break

            slots, rn16s = mac_words.take(active, q)

            counts = np.bincount(slots, minlength=n_slots).astype(np.int32)
            scale = capture.amplitude_scale if capture is not None else 1.0
            amps = tags.reply_amplitude_v[active] * scale

            # Strongest replier per slot; amplitude ties break toward
            # the lowest global tag index (lexsort's last key is
            # primary, earlier keys break ties in order).
            order = np.lexsort((active[: len(slots)], -amps, slots))
            sorted_slots = slots[order]
            first = np.ones(order.size, dtype=bool)
            first[1:] = sorted_slots[1:] != sorted_slots[:-1]
            winner_rows = order[first]  # rows into `active`, slot-sorted
            winner_slots = slots[winner_rows]

            decoded_slots = np.zeros(n_slots, dtype=bool)
            if capture is None:
                singleton = counts[winner_slots] == 1
                decoded_slots[winner_slots[singleton]] = True
            else:
                decoded_slots = _vectorized_decode(
                    capture,
                    reader,
                    injector,
                    noise_avg,
                    slots,
                    rn16s,
                    amps,
                    counts,
                    winner_rows,
                    winner_slots,
                    n_slots,
                    seed_material,
                    seed,
                    shard_index,
                    round_index,
                    max_rounds,
                )

            winners = np.full(n_slots, -1, dtype=np.int64)
            read_rows = winner_rows[decoded_slots[winner_slots]]
            read_slots = slots[read_rows]
            winners[read_slots] = tags.global_indices[active[read_rows]]
            inventoried[active[read_rows]] = True
            result.read_order.extend(int(v) for v in winners[read_slots])

            result.rounds.append(
                RoundOutcome(
                    q=q,
                    n_replies=counts,
                    decoded=decoded_slots,
                    winners=winners,
                )
            )

            # Q adaptation over the reader's view of each slot, in slot
            # order: decode=singleton, occupied-but-undecoded=collision.
            effective = counts.astype(np.int64)
            if capture is not None:
                failed = (counts >= 1) & ~decoded_slots
                effective[decoded_slots] = 1
                effective[failed & (counts == 1)] = 2
            algorithm.on_slots(effective)

            had_replies = bool(np.any(counts > 0))
            had_success = bool(np.any(decoded_slots))
            stalled = _stop_state(had_replies, had_success, stalled)
            if not had_replies:
                break
            if capture is not None and stalled >= capture.stall_rounds:
                break

    obs.metrics.counter("fleet.rounds").inc(len(result.rounds))
    obs.metrics.counter("fleet.slots_resolved").inc(result.slots_used)
    obs.metrics.counter("fleet.tags_inventoried").inc(result.reads)
    obs.metrics.counter("fleet.captures").inc(result.n_captures)
    return result


def _vectorized_decode(
    capture: CaptureModel,
    reader,
    injector: FaultInjector,
    noise_avg: float,
    slots: np.ndarray,
    rn16s: np.ndarray,
    amps: np.ndarray,
    counts: np.ndarray,
    winner_rows: np.ndarray,
    winner_slots: np.ndarray,
    n_slots: int,
    seed_material: int,
    seed: int,
    shard_index: int,
    round_index: int,
    max_rounds: int,
) -> np.ndarray:
    """Stacked decode attempts of one round; returns per-slot success."""
    obs = current_obs()
    spc = capture.samples_per_chip
    n_samples = RN16_CHIPS * spc

    # SINR prefilter: winner amplitude over the RMS of everything else.
    slot_power = np.bincount(slots, weights=amps**2, minlength=n_slots)
    winner_amps = amps[winner_rows]
    interference = slot_power[winner_slots] - winner_amps**2
    interference = np.maximum(interference, 0.0)
    sinr = winner_amps / np.sqrt(interference + noise_avg**2)
    attempt = sinr >= capture.min_attempt_sinr
    attempt_rows = winner_rows[attempt]
    attempt_slots = slots[attempt_rows]
    decoded = np.zeros(n_slots, dtype=bool)
    if attempt_rows.size == 0:
        return decoded

    # Composite waveforms: every replier of an attempted slot adds its
    # amplitude-weighted FM0 RN16, accumulated in global tag order
    # (np.add.at applies repeated-index additions sequentially, so the
    # summation order matches the reference's per-tag loop).
    row_of_slot = np.full(n_slots, -1, dtype=np.int64)
    row_of_slot[attempt_slots] = np.arange(attempt_slots.size)
    repliers = np.flatnonzero(row_of_slot[slots] >= 0)
    chips = encode_chips_block(rn16s[repliers])
    waveforms = np.repeat(np.where(chips == 1, 1.0, -1.0), spc, axis=1)
    weighted = amps[repliers, None] * waveforms
    composites = np.zeros(
        (attempt_slots.size, n_samples), dtype=weighted.dtype
    )
    np.add.at(composites, row_of_slot[slots[repliers]], weighted)

    # Receive the whole round's attempts through the reader chain in one
    # stacked call (attempts x periods), then DC-block per attempt --
    # the same scalar ``mean of this capture`` subtraction the reference
    # reader applies -- and decode the stack in one FM0 block call.
    rngs = keyed_rngs(
        (_DECODE_STREAM_TAG, seed_material, seed, shard_index, round_index),
        attempt_slots.tolist(),
    )
    averaged = capture_block(reader.chain, composites, capture.n_periods, rngs)
    averaged = averaged - np.mean(averaged, axis=1, keepdims=True)
    if injector.active:
        for a, slot in enumerate(attempt_slots):
            averaged[a] = injector.corrupt_waveform(
                _decode_trial_index(
                    shard_index, round_index, int(slot), max_rounds
                ),
                averaged[a],
                spc,
            )

    tx_bits = rn16s[attempt_rows]
    errors = fm0_block_errors(tx_bits, averaged, spc)
    decoded[attempt_slots[errors == 0]] = True
    obs.metrics.counter("fleet.decode_attempts").inc(attempt_rows.size)
    return decoded
