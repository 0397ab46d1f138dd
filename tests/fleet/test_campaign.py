"""Tests for repro.fleet.campaign."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.fleet.campaign import (
    FLEET_SCHEMA_VERSION,
    FleetCampaignConfig,
    run_fleet_campaign,
    validate_fleet_dict,
)
from repro.obs.context import obs_context

FAST = FleetCampaignConfig.fast()


@pytest.fixture(scope="module")
def baseline():
    return run_fleet_campaign(FAST, workers=1)


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_do_not_change_tables(self, baseline, workers):
        result = run_fleet_campaign(FAST, workers=workers)
        assert result.to_json_dict() == baseline.to_json_dict()

    def test_chunk_size_does_not_change_tables(self, baseline):
        with obs_context() as obs:
            result = run_fleet_campaign(FAST, workers=2, chunk_size=1)
        assert result.to_json_dict() == baseline.to_json_dict()
        # Every cell's shard map ran on the campaign's one pool.
        assert obs.metrics.counters()["runner.pool_starts"] == 1

    def test_rerun_is_bitwise_identical(self, baseline):
        assert (
            run_fleet_campaign(FAST, workers=1).to_json_dict()
            == baseline.to_json_dict()
        )


class TestTableShape:
    def test_one_row_per_cell(self, baseline):
        assert len(baseline.rows) == len(FAST.cells())

    def test_rows_follow_cell_order(self, baseline):
        populations = [row["population"] for row in baseline.rows]
        assert populations == [cell[0] for cell in FAST.cells()]

    def test_reads_bounded_by_powered(self, baseline):
        for row in baseline.rows:
            assert 0 <= row["reads"] <= row["n_powered"] <= row["population"]

    def test_render_mentions_capture(self, baseline):
        assert "capture" in baseline.table().render().lower()


class TestSchema:
    def test_payload_validates(self, baseline):
        validate_fleet_dict(baseline.to_json_dict())

    def test_schema_version_pinned(self, baseline):
        assert baseline.to_json_dict()["schema_version"] == FLEET_SCHEMA_VERSION

    def test_rejects_wrong_version(self, baseline):
        payload = baseline.to_json_dict()
        payload["schema_version"] = FLEET_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            validate_fleet_dict(payload)

    def test_rejects_missing_row_key(self, baseline):
        payload = baseline.to_json_dict()
        del payload["rows"][0]["captures"]
        with pytest.raises(ValueError):
            validate_fleet_dict(payload)

    def test_rejects_bad_fraction(self, baseline):
        payload = baseline.to_json_dict()
        payload["rows"][0]["missed_fraction"] = 1.5
        with pytest.raises(ValueError):
            validate_fleet_dict(payload)

    def test_rejects_reads_above_population(self, baseline):
        payload = baseline.to_json_dict()
        payload["rows"][0]["reads"] = payload["rows"][0]["population"] + 1
        with pytest.raises(ValueError):
            validate_fleet_dict(payload)

    @pytest.mark.parametrize("key", ["airtime_s", "read_rate_tags_per_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_or_negative_airtime_and_rate(
        self, baseline, key, value
    ):
        payload = baseline.to_json_dict()
        payload["rows"][0][key] = value
        with pytest.raises(ValueError, match=key):
            validate_fleet_dict(payload)

    def test_rejects_empty_rows(self, baseline):
        payload = baseline.to_json_dict()
        payload["rows"] = []
        with pytest.raises(ValueError):
            validate_fleet_dict(payload)


class TestConfigValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigurationError):
            FleetCampaignConfig(populations=())
        with pytest.raises(ConfigurationError):
            FleetCampaignConfig(depth_bands=())

    def test_shards_clamped_to_population(self):
        config = FleetCampaignConfig(n_shards=8)
        fleet = config.fleet_config(3, (0.02, 0.06), 10)
        assert fleet.n_shards == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            {"standoff_m": math.nan},
            {"eirp_per_antenna_w": math.nan},
            {"eirp_per_antenna_w": math.inf},
            {"eirp_per_antenna_w": -6.0},
            {"array_sizes": (10, 0)},
            {"depth_bands": ((0.02, 0.06), (0.06, math.inf))},
            {"depth_bands": ((0.06, 0.02),)},
            {"blf_hz": math.nan},
            {"blf_hz": -40e3},
            {"amplitude_scale": math.nan},
            {"amplitude_scale": math.inf},
            {"min_attempt_sinr": math.nan},
            {"n_periods": 0},
        ],
    )
    def test_rejects_bad_cells_when_built(self, overrides):
        with pytest.raises(ConfigurationError):
            FleetCampaignConfig(**overrides)
