"""Tests for repro.analysis.mc."""

import numpy as np
import pytest

from repro.analysis.mc import iter_keyed_rngs, keyed_rngs, spawn_rngs


def _states(rngs):
    return [rng.bit_generator.state for rng in rngs]


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5
        assert spawn_rngs(0, 0) == []

    def test_deterministic(self):
        first = [rng.uniform() for rng in spawn_rngs(42, 4)]
        second = [rng.uniform() for rng in spawn_rngs(42, 4)]
        assert first == second

    def test_independent_streams(self):
        values = [rng.uniform() for rng in spawn_rngs(42, 8)]
        assert len(set(values)) == 8

    def test_different_seeds_differ(self):
        a = [rng.uniform() for rng in spawn_rngs(1, 3)]
        b = [rng.uniform() for rng in spawn_rngs(2, 3)]
        assert a != b

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_negative_start_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, 2, start=-1)

    @pytest.mark.parametrize(
        "seed, n, start, count",
        [(42, 10, 0, 10), (42, 10, 3, 4), (7, 25, 24, 1), (2**40, 6, 2, 0)],
    )
    def test_start_gives_the_spawned_slice(self, seed, n, start, count):
        children = np.random.SeedSequence(seed).spawn(n)[start : start + count]
        expected = [np.random.default_rng(child) for child in children]
        assert _states(spawn_rngs(seed, count, start)) == _states(expected)


def _seeded(prefix, keys, suffix=()):
    return [
        np.random.default_rng(np.random.SeedSequence([*prefix, k, *suffix]))
        for k in keys
    ]


class TestKeyedRngs:
    @pytest.mark.parametrize(
        "prefix, suffix",
        [
            ((0x0F1EE7, 2**64 - 5, 73), (0,)),  # two-word material
            ((0x0F1EE7, 12345, 73), (1,)),  # material under 32 bits
            ((0x0F1EE8, 2**63 + 11, 2**40, 3, 17), ()),  # decode-stream layout
            ((7,), (2**40, 0)),  # key inside the first pool words
            ((), ()),
        ],
    )
    def test_matches_seed_sequence(self, prefix, suffix):
        keys = [0, 1, 2**32 - 1, 2**32, 2**64, 2**70 + 3, 5]
        assert _states(keyed_rngs(prefix, keys, suffix)) == _states(
            _seeded(prefix, keys, suffix)
        )

    def test_draws_match_seed_sequence(self):
        keyed = keyed_rngs((1, 2), range(20), (3,))
        seeded = _seeded((1, 2), range(20), (3,))
        for a, b in zip(keyed, seeded):
            assert np.array_equal(a.integers(0, 2, 96), b.integers(0, 2, 96))
            assert a.uniform() == b.uniform()

    def test_accepts_numpy_keys(self):
        keys = np.array([4, 9, 2**33], dtype=np.int64)
        assert _states(keyed_rngs((5,), keys)) == _states(_seeded((5,), keys))

    def test_empty_keys(self):
        assert keyed_rngs((1, 2, 3), []) == []

    def test_negative_key_raises_like_seed_sequence(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence([1, -1])
        with pytest.raises(ValueError):
            keyed_rngs((1,), [3, -1])
        with pytest.raises(ValueError):
            keyed_rngs((-1,), [3])

    def test_iter_is_lazy_but_validates_eagerly(self):
        with pytest.raises(ValueError):
            iter_keyed_rngs((1,), [-1])
        lazy = iter_keyed_rngs((1,), range(3))
        assert _states(lazy) == _states(_seeded((1,), range(3)))
