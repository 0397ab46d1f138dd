"""Tests for repro.analysis.linkbudget."""

import math

import pytest

from repro.analysis.linkbudget import antennas_required, downlink_budget
from repro.em.layers import LayeredPath, uniform_path
from repro.em.media import AIR, WATER
from repro.errors import ConfigurationError
from repro.sensors.tags import miniature_tag_spec, standard_tag_spec


def air_budget(n_antennas=1, distance=5.2, eirp=5.9, tag=None):
    return downlink_budget(
        tag if tag is not None else standard_tag_spec(),
        eirp_per_branch_w=eirp,
        n_antennas=n_antennas,
        air_distance_m=distance,
        tissue_path=LayeredPath([]),
        medium_at_tag=AIR,
        peak_alignment=1.0,
    )


class TestDownlinkBudget:
    def test_single_antenna_5m_is_marginal(self):
        """The Fig. 13 calibration point: ~0 dB margin at 5.2 m."""
        budget = air_budget()
        assert abs(budget.margin_db) < 1.0

    def test_more_antennas_add_margin(self):
        one = air_budget(n_antennas=1)
        eight = air_budget(n_antennas=8)
        assert eight.margin_db == pytest.approx(
            one.margin_db + 10 * math.log10(64), abs=0.1
        )

    def test_tissue_stack_costs_db(self):
        dry = air_budget(distance=0.9)
        wet = downlink_budget(
            standard_tag_spec(),
            eirp_per_branch_w=5.9,
            n_antennas=1,
            air_distance_m=0.9,
            tissue_path=uniform_path(WATER, 0.10),
            medium_at_tag=WATER,
            peak_alignment=1.0,
        )
        assert wet.margin_db < dry.margin_db - 10.0

    def test_miniature_tag_much_tighter(self):
        standard = air_budget()
        miniature = air_budget(tag=miniature_tag_spec())
        assert miniature.margin_db < standard.margin_db - 15.0

    def test_voltage_consistent_with_simulation_path(self):
        """The budget's V_s must match the experiments' direct computation."""
        from repro.em.propagation import free_space_field_amplitude
        from repro.harvester.tag_power import HarvesterFrontEnd

        spec = standard_tag_spec()
        budget = air_budget(n_antennas=4, distance=3.0)
        field = free_space_field_amplitude(5.9, 3.0) * 4 * 1.0
        front_end = HarvesterFrontEnd(
            antenna=spec.antenna,
            chip_resistance_ohms=spec.chip_resistance_ohms,
            liquid_aperture_factor=spec.liquid_aperture_factor,
        )
        expected = front_end.input_voltage_amplitude_v(field, AIR, 915e6)
        assert budget.input_voltage_v == pytest.approx(expected, rel=1e-9)

    def test_render_contains_stages(self):
        text = air_budget().render()
        assert "EIRP" in text
        assert "tissue stack" in text
        assert "margin" in text

    def test_running_levels_monotone_through_losses(self):
        budget = air_budget()
        levels = [l.running_dbm for l in budget.lines if l.running_dbm is not None]
        # After the CIB gain line, each stage only loses power in air.
        assert levels[1] >= levels[2] >= levels[3]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            air_budget(eirp=0.0)
        with pytest.raises(ConfigurationError):
            downlink_budget(
                standard_tag_spec(), 1.0, 0, 1.0, LayeredPath([]), AIR
            )
        with pytest.raises(ConfigurationError):
            downlink_budget(
                standard_tag_spec(), 1.0, 1, 1.0, LayeredPath([]), AIR,
                peak_alignment=0.0,
            )

    @pytest.mark.parametrize("eirp", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("error", [ValueError, ConfigurationError])
    def test_rejects_bad_eirp(self, eirp, error):
        with pytest.raises(error, match="positive and finite"):
            air_budget(eirp=eirp)


class TestAntennasRequired:
    def test_close_range_needs_one(self):
        count = antennas_required(
            standard_tag_spec(), 5.9, 1.0, LayeredPath([]), AIR,
            peak_alignment=1.0,
        )
        assert count == 1

    def test_deep_water_needs_array(self):
        count = antennas_required(
            standard_tag_spec(),
            5.9,
            0.9,
            uniform_path(WATER, 0.15),
            WATER,
            peak_alignment=0.8,
        )
        assert count is not None
        assert count > 2

    def test_impossible_geometry_returns_none(self):
        count = antennas_required(
            miniature_tag_spec(),
            5.9,
            0.9,
            uniform_path(WATER, 0.8),
            WATER,
            max_antennas=16,
        )
        assert count is None

    def test_monotone_in_depth(self):
        counts = [
            antennas_required(
                standard_tag_spec(), 5.9, 0.9, uniform_path(WATER, depth),
                WATER, peak_alignment=0.8,
            )
            for depth in (0.05, 0.10, 0.15)
        ]
        assert counts[0] <= counts[1] <= counts[2]
