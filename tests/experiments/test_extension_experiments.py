"""Tests for the extension experiments (optogenetics, throughput)."""

import numpy as np
import pytest

from repro.em.phantoms import HeadPhantom
from repro.errors import ConfigurationError
from repro.experiments import inventory_throughput, optogenetics
from tests.reference.inventory import run_reference


class TestHeadPhantom:
    def test_overburden(self):
        phantom = HeadPhantom()
        assert phantom.overburden_depth_m() == pytest.approx(0.013)

    def test_tissue_path_layers(self):
        path = HeadPhantom().tissue_path(0.02)
        names = [layer.medium.name for layer in path.layers]
        assert names == ["skin", "bone", "cerebrospinal fluid", "brain"]
        assert path.total_depth_m == pytest.approx(0.033)

    def test_skull_is_low_loss_csf_is_high_loss(self):
        from repro.em.media import BONE, CSF

        assert BONE.attenuation_db_per_cm(915e6) < 1.0
        assert CSF.attenuation_db_per_cm(915e6) > 3.0

    def test_channel_standoff_range(self, rng):
        phantom = HeadPhantom()
        channel = phantom.channel(0.02, 4, 915e6, rng)
        assert np.min(channel.air_distances_m) >= phantom.min_standoff_m - 0.1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HeadPhantom(min_standoff_m=2.0, max_standoff_m=1.0)
        with pytest.raises(ValueError):
            HeadPhantom().tissue_path(-0.01)


class TestOptogenetics:
    @pytest.fixture(scope="class")
    def result(self):
        return optogenetics.run(
            optogenetics.OptogeneticsConfig(
                depths_m=(0.01, 0.03), antenna_counts=(1, 8, 10), n_trials=8
            )
        )

    def test_single_antenna_never_powers(self, result):
        """The paper's premise: one antenna cannot reach a brain implant
        from across the room."""
        for depth in result.depths_m:
            assert result.probability(depth, 1) == 0.0

    def test_full_array_powers_shallow_targets(self, result):
        assert result.probability(0.01, 10) >= 0.75

    def test_probability_monotone_in_antennas(self, result):
        for depth in result.depths_m:
            values = [
                result.probability(depth, n) for n in result.antenna_counts
            ]
            assert values[0] <= values[-1]

    def test_probability_decreases_with_depth(self, result):
        assert result.probability(0.03, 10) <= result.probability(0.01, 10)

    def test_table(self, result):
        assert "brain implant" in result.table().render()


class TestInventoryThroughput:
    @pytest.fixture(scope="class")
    def result(self):
        return inventory_throughput.run(
            inventory_throughput.ThroughputConfig(populations=(1, 4, 16))
        )

    def test_all_populations_fully_read(self, result):
        for population, slots, airtime_ms, rate, efficiency in result.rows:
            # rate * airtime = tags read.
            read = rate * airtime_ms / 1e3
            assert round(read) == population

    def test_rates_in_gen2_ballpark(self, result):
        """Commercial Gen2 readers inventory tens-to-hundreds of tags/s."""
        for rate in result.rates():
            assert 20.0 <= rate <= 1000.0

    def test_airtime_grows_with_population(self, result):
        airtimes = [row[2] for row in result.rows]
        assert airtimes[0] < airtimes[-1]

    def test_slot_efficiency_bounded(self, result):
        for row in result.rows:
            assert 0 < row[4] <= 1.0


class TestAirtimeModel:
    def test_singleton_slot_longest(self):
        model = inventory_throughput.AirtimeModel()
        empty = model.slot_s("empty")
        collision = model.slot_s("collision")
        singleton = model.slot_s("singleton")
        assert empty < collision < singleton

    def test_uplink_scales_with_bits(self):
        model = inventory_throughput.AirtimeModel(blf_hz=40e3)
        assert model.uplink_s(128) > model.uplink_s(16)
        assert model.uplink_s(16) == pytest.approx((6 + 16 + 1) / 40e3)


class TestThroughputFleetPort:
    """The throughput experiment now runs on the fleet resolver; its
    rows must stay bit-identical to the legacy InventoryRound loop."""

    def test_port_matches_legacy_rows(self):
        config = inventory_throughput.ThroughputConfig(
            populations=(1, 4, 16)
        )
        ported = inventory_throughput.run(config)
        legacy = run_reference(config)
        assert ported.rows == legacy.rows

    def test_port_matches_legacy_default_grid(self):
        config = inventory_throughput.ThroughputConfig()
        assert (
            inventory_throughput.run(config).rows
            == run_reference(config).rows
        )
