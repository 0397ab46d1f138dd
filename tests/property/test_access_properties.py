"""Property-based tests on the Gen2 access layer and the band hopper."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hopping import AdaptiveHopper
from repro.core.plan import paper_plan
from repro.gen2.access import TagMemory


class TestMemoryProperties:
    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 2**16 - 1)),
            min_size=1,
            max_size=20,
        )
    )
    def test_last_write_wins(self, writes):
        memory = TagMemory(user_words=16)
        expected = {}
        for pointer, value in writes:
            memory.write("USER", pointer, value)
            expected[pointer] = value
        for pointer, value in expected.items():
            assert memory.read("USER", pointer, 1) == (value,)


class TestHopperProperties:
    @settings(max_examples=25)
    @given(
        st.lists(st.floats(0.0, 5.0), min_size=2, max_size=6),
        st.integers(0, 2**31 - 1),
    )
    def test_mean_reward_within_band_range(self, rewards, seed):
        bands = tuple(900e6 + 1e6 * k for k in range(len(rewards)))
        table = dict(zip(bands, rewards))
        hopper = AdaptiveHopper(
            paper_plan(), bands_hz=bands, epsilon=0.2,
            rng=np.random.default_rng(seed),
        )
        mean = hopper.run(lambda band: table[band], n_periods=12)
        assert min(rewards) - 1e-9 <= mean <= max(rewards) + 1e-9

    @settings(max_examples=25)
    @given(st.integers(0, 2**31 - 1))
    def test_every_band_probed_at_least_once(self, seed):
        bands = tuple(900e6 + 1e6 * k for k in range(5))
        hopper = AdaptiveHopper(
            paper_plan(), bands_hz=bands, rng=np.random.default_rng(seed)
        )
        hopper.run(lambda band: 1.0, n_periods=5)
        assert all(
            hopper.statistics[band].n_probes >= 1 for band in bands
        )
