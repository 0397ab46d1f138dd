"""Block-drawn MAC streams are exact, not approximations.

:class:`repro.fleet.collision._MacWords` replaces a tag's per-round
``integers(0, 2**q)`` slot draw and ``integers(0, 2, size=16)`` RN16 draw
with raw 32-bit words drawn in blocks. These tests pin that the two give
the same values from the same stream -- for every Q, across block
refills, from a generator that enters with a buffered half-word -- and
that whole inventories still match the per-call ``Gen2Tag`` oracle.
"""

import copy

import numpy as np
import pytest

from repro.fleet.collision import (
    RN16_BITS,
    CaptureModel,
    _MacWords,
    run_inventory,
)
from repro.fleet.population import TagSet
from repro.gen2.inventory import QAlgorithm
from tests.reference.fleet import run_inventory_reference


def per_call_draws(rng, q):
    """One round of the Gen2Tag state machine's draws."""
    slot = int(rng.integers(0, 2**q))
    bits = rng.integers(0, 2, size=RN16_BITS)
    return slot, bits


def assert_blocks_match_per_call(rngs, schedule):
    """Drive ``_MacWords`` and per-call clones through ``schedule``.

    ``schedule`` is a list of ``(rows, q)`` rounds.
    """
    clones = [copy.deepcopy(rng) for rng in rngs]
    words = _MacWords(rngs)
    for rows, q in schedule:
        slots, bits = words.take(np.asarray(rows, dtype=np.int64), q)
        for k, row in enumerate(rows):
            want_slot, want_bits = per_call_draws(clones[row], q)
            assert int(slots[k]) == want_slot
            np.testing.assert_array_equal(bits[k], want_bits)
        assert slots.dtype == np.int64 and bits.dtype == np.int64


class TestBlockDraws:
    @pytest.mark.parametrize("q", range(16))
    def test_every_q_matches_per_call_draws(self, q):
        # 20 rounds of one Q run each tag well past its first block.
        rngs = [np.random.default_rng(1000 + q), np.random.default_rng(q)]
        assert_blocks_match_per_call(rngs, [([0, 1], q)] * 20)

    @pytest.mark.parametrize("q", [0, 1, 7, 15])
    def test_pending_buffered_half_word(self, q):
        """A generator holding PCG64's buffered 32-bit half enters."""
        rng = np.random.default_rng(77)
        rng.integers(0, 2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        assert_blocks_match_per_call([rng], [([0], q)] * 12)

    def test_random_q_and_participation_schedules(self):
        schedule_rng = np.random.default_rng(2024)
        for trial in range(40):
            n = 5
            rngs = [np.random.default_rng([trial, i]) for i in range(n)]
            if trial % 2:
                rngs[0].integers(0, 2**32, dtype=np.uint32)
            schedule = []
            for _ in range(30):
                mask = schedule_rng.random(n) < 0.7
                rows = np.flatnonzero(mask).tolist() or [0]
                schedule.append((rows, int(schedule_rng.integers(0, 16))))
            assert_blocks_match_per_call(rngs, schedule)

    def test_tags_that_never_contend_never_draw(self):
        rngs = [np.random.default_rng(i) for i in range(3)]
        before = rngs[1].bit_generator.state
        _MacWords(rngs).take(np.array([0, 2]), 4)
        assert rngs[1].bit_generator.state == before


def silent_tags(n, seed=9):
    """Powered tags whose backscatter never clears the noise floor."""
    rng = np.random.default_rng(seed)
    return TagSet(
        epc_bits=rng.integers(0, 2, size=(n, 96)),
        reply_amplitude_v=np.full(n, 1e-12),
        powered=np.ones(n, dtype=bool),
        mac_rngs=[np.random.default_rng(100 + i) for i in range(n)],
        global_indices=np.arange(n),
        depths_m=np.full(n, 0.1),
        input_voltage_v=np.zeros(n),
    )


def ideal_tags(n, seed=5):
    """Tags an ideal (``capture=None``) reader reads on singletons."""
    tags = silent_tags(n, seed)
    tags.reply_amplitude_v = np.random.default_rng(seed).random(n)
    return tags


class TestInventoryParity:
    def test_silent_tags_refill_past_the_first_block(self):
        capture = CaptureModel(stall_rounds=64)
        kwargs = dict(initial_q=2, max_rounds=64)
        vectorized = run_inventory(silent_tags(4), capture, **kwargs)
        reference = run_inventory_reference(silent_tags(4), capture, **kwargs)
        # Every tag contends in all 64 rounds: 64 * 17 words, eight blocks.
        assert len(vectorized.rounds) == 64
        assert vectorized.signature() == reference.signature()

    @pytest.mark.parametrize("initial_q", [0, 3])
    def test_ideal_capture_none(self, initial_q):
        """The throughput experiment's path: singletons read, Q from counts."""
        kwargs = dict(initial_q=initial_q, max_rounds=64)
        vectorized = run_inventory(ideal_tags(48), None, **kwargs)
        reference = run_inventory_reference(ideal_tags(48), None, **kwargs)
        assert vectorized.reads == 48
        assert vectorized.signature() == reference.signature()


class TestOnSlots:
    def test_matches_on_slot_loop_bitwise(self):
        rng = np.random.default_rng(3)
        hit_floor = hit_ceiling = False
        for trial in range(200):
            initial_q = int(rng.integers(0, 16))
            c = float(rng.uniform(0.1, 0.5))
            batched = QAlgorithm(initial_q=initial_q, c=c)
            looped = QAlgorithm(initial_q=initial_q, c=c)
            for _ in range(6):
                # Runs skewed toward empties or collisions drive Qfp into
                # the 0 and 15 clamps.
                weights = rng.dirichlet(np.ones(3))
                size = int(rng.integers(1, 64))
                counts = rng.choice([0, 1, 3], size=size, p=weights)
                batched.on_slots(counts)
                for value in counts:
                    looped.on_slot(int(value))
                assert batched.q_float == looped.q_float
                assert batched.q == looped.q
                hit_floor |= looped.q_float == 0.0
                hit_ceiling |= looped.q_float == 15.0
        assert hit_floor and hit_ceiling

    def test_empty_counts_leave_q_unchanged(self):
        algorithm = QAlgorithm(initial_q=4)
        algorithm.on_slots(np.zeros(0, dtype=np.int32))
        assert algorithm.q_float == 4.0
