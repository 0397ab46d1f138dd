"""EPC bits from raw generator words are the ``integers`` draw, exactly.

:func:`repro.fleet.population.generate_shard` takes each tag's 96 EPC
bits from 48 raw words of its physics stream instead of calling
``integers(0, 2, size=96)``. These tests pin the bytes and the generator
state both ways leave behind.
"""

import numpy as np

from repro.fleet.population import (
    EPC_BITS,
    FleetConfig,
    epc_bits_from_words,
    generate_shard,
)


def test_bits_and_state_match_integers_draw():
    for seed in range(2000):
        expected = np.random.default_rng(seed)
        actual = np.random.default_rng(seed)
        # A physics stream draws its doubles before the EPC.
        expected.random(1 + seed % 11)
        actual.random(1 + seed % 11)
        want = expected.integers(0, 2, size=EPC_BITS)
        got = epc_bits_from_words(
            actual.bit_generator.random_raw(EPC_BITS // 2)
        )
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), seed
        # Same stream position and no buffered half either way; PCG64's
        # stale ``uinteger`` slot differs but is never read unbuffered.
        got_state = actual.bit_generator.state
        want_state = expected.bit_generator.state
        assert got_state["state"] == want_state["state"]
        assert got_state["has_uint32"] == want_state["has_uint32"] == 0
        assert actual.random() == expected.random()
        assert (
            actual.integers(0, 2**32, size=3, dtype=np.uint32).tobytes()
            == expected.integers(0, 2**32, size=3, dtype=np.uint32).tobytes()
        )


def test_rows_convert_independently():
    words = np.random.default_rng(3).bit_generator.random_raw((5, 48))
    bits = epc_bits_from_words(words)
    assert bits.shape == (5, EPC_BITS)
    for row in range(5):
        np.testing.assert_array_equal(
            bits[row], epc_bits_from_words(words[row])
        )


def test_shard_epcs_are_binary_and_distinct():
    tags = generate_shard(FleetConfig(n_tags=64, n_shards=1, seed=5), 0)
    assert set(np.unique(tags.epc_bits).tolist()) <= {0, 1}
    assert len({row.tobytes() for row in tags.epc_bits}) == 64
