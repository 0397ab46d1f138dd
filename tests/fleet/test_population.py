"""Tests for repro.fleet.population."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import antenna_dropout
from repro.fleet.population import FleetConfig, generate_shard, shard_bounds
from repro.reader.out_of_band import backscatter_amplitude_v

SMALL = FleetConfig(n_tags=12, n_shards=3, seed=17)


class TestFleetConfig:
    def test_stable_hash_deterministic(self):
        assert FleetConfig().stable_hash() == FleetConfig().stable_hash()

    def test_stable_hash_tracks_every_field(self):
        base = FleetConfig()
        assert base.stable_hash() != FleetConfig(seed=74).stable_hash()
        assert base.stable_hash() != FleetConfig(n_tags=99).stable_hash()
        assert (
            base.stable_hash()
            != FleetConfig(depth_max_m=0.09).stable_hash()
        )

    def test_seed_material_is_hash_as_int(self):
        config = FleetConfig()
        assert config.seed_material() == int(config.stable_hash(), 16)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(n_tags=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(depth_min_m=0.1, depth_max_m=0.05)
        with pytest.raises(ConfigurationError):
            FleetConfig(tag="imaginary")
        with pytest.raises(ConfigurationError):
            FleetConfig(n_tags=4, n_shards=5)
        with pytest.raises(ConfigurationError):
            FleetConfig(session=4)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("standoff_m", math.nan),
            ("standoff_m", 0.0),
            ("standoff_m", math.inf),
            ("eirp_per_antenna_w", math.nan),
            ("eirp_per_antenna_w", math.inf),
            ("eirp_per_antenna_w", -1.0),
            ("eirp_per_antenna_w", 0.0),
            ("frequency_hz", -915e6),
            ("frequency_hz", math.nan),
            ("n_antennas", 0),
            ("depth_max_m", math.inf),
            ("depth_min_m", math.nan),
        ],
    )
    def test_rejects_bad_physics_when_built(self, field, value):
        with pytest.raises(ConfigurationError):
            FleetConfig(**{field: value})


class TestShardBounds:
    def test_partition_covers_population_exactly(self):
        config = FleetConfig(n_tags=11, n_shards=4)
        covered = []
        for shard in range(config.n_shards):
            lo, hi = shard_bounds(config, shard)
            covered.extend(range(lo, hi))
        assert covered == list(range(config.n_tags))

    def test_balanced_within_one(self):
        config = FleetConfig(n_tags=11, n_shards=4)
        sizes = [
            hi - lo
            for lo, hi in (
                shard_bounds(config, s) for s in range(config.n_shards)
            )
        ]
        assert max(sizes) - min(sizes) <= 1

    def test_out_of_range_shard_rejected(self):
        with pytest.raises(ValueError):
            shard_bounds(SMALL, 3)
        with pytest.raises(ValueError):
            shard_bounds(SMALL, -1)


class TestGenerateShard:
    def test_regeneration_is_bitwise_identical(self):
        first = generate_shard(SMALL, 1)
        second = generate_shard(SMALL, 1)
        assert np.array_equal(first.epc_bits, second.epc_bits)
        assert np.array_equal(
            first.reply_amplitude_v, second.reply_amplitude_v
        )
        assert np.array_equal(first.powered, second.powered)
        assert np.array_equal(first.depths_m, second.depths_m)
        assert np.array_equal(
            first.input_voltage_v, second.input_voltage_v
        )

    def test_shards_carry_their_global_indices(self):
        indices = np.concatenate(
            [
                generate_shard(SMALL, s).global_indices
                for s in range(SMALL.n_shards)
            ]
        )
        assert np.array_equal(indices, np.arange(SMALL.n_tags))

    def test_depths_stay_in_band(self):
        tags = generate_shard(SMALL, 0)
        assert np.all(tags.depths_m >= SMALL.depth_min_m)
        assert np.all(tags.depths_m <= SMALL.depth_max_m)

    def test_amplitudes_positive_and_depth_ordered(self):
        """Deeper implants lose more two-way path; the shallowest tag in
        a shard must out-shout the deepest (the capture-effect physics)."""
        config = FleetConfig(n_tags=16, n_shards=1, seed=5)
        tags = generate_shard(config, 0)
        assert np.all(tags.reply_amplitude_v > 0)
        shallow = int(np.argmin(tags.depths_m))
        deep = int(np.argmax(tags.depths_m))
        assert tags.reply_amplitude_v[shallow] > tags.reply_amplitude_v[deep]

    def test_antenna_dropout_weakens_harvest(self):
        healthy = generate_shard(SMALL, 0)
        faulted = generate_shard(SMALL, 0, antenna_dropout(antennas=(0, 1)))
        assert np.all(
            faulted.input_voltage_v <= healthy.input_voltage_v + 1e-15
        )
        assert np.any(faulted.input_voltage_v < healthy.input_voltage_v)


class TestBackscatterBudget:
    def test_quartic_in_forward_gain(self):
        """Two-way budget: amplitude scales as forward_gain squared."""
        one = backscatter_amplitude_v(1e-3, 1e-4)
        double = backscatter_amplitude_v(2e-3, 1e-4)
        assert double == pytest.approx(4.0 * one, rel=1e-12)
