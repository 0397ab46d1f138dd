"""Tests for the degradation experiment (repro.experiments.degradation)."""

import json

import pytest

from repro.experiments import degradation
from repro.experiments.cli import main
from repro.faults.campaign import validate_degradation_dict
from repro.obs.context import obs_context

FAST = degradation.DegradationConfig.fast()


@pytest.fixture(scope="module")
def result():
    with obs_context():
        return degradation.run(FAST)


class TestNMinusOneLaw:
    def test_baseline_is_coherent_sum(self, result):
        assert result.dropout.baseline == pytest.approx(
            FAST.n_antennas, rel=1e-6
        )

    def test_dropout_matches_n_minus_k_over_n(self, result):
        for k, relative in zip(
            FAST.dropout_counts, result.dropout.relative()
        ):
            expected = degradation.expected_dropout_relative(
                FAST.n_antennas, k
            )
            assert relative == pytest.approx(expected, rel=1e-6), k


class TestRelockInsensitivity:
    def test_mean_peak_flat_in_severity(self, result):
        """Blind CIB's peak distribution is invariant under phase jumps."""
        for relative in result.relock.relative():
            assert relative == pytest.approx(1.0, abs=0.05)


class TestDetuningAndCorruption:
    def test_detuning_monotonically_degrades(self, result):
        values = (result.detuning.baseline,) + result.detuning.values
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert result.detuning.values[-1] < result.detuning.baseline

    def test_corruption_degrades_from_perfect_baseline(self, result):
        assert result.corruption.baseline == 1.0
        assert result.corruption.values[-1] < 0.6
        assert all(0.0 <= v <= 1.0 for v in result.corruption.values)


class TestResultSurface:
    def test_tables_render(self, result):
        rendered = [table.render() for table in result.tables()]
        assert len(rendered) == 4
        assert any("antenna_dropout" in text for text in rendered)

    def test_json_payload_validates(self, result):
        payload = result.to_json_dict()
        assert set(payload["tables"]) == {
            "antenna_dropout",
            "pll_relock",
            "tag_detuning",
            "bit_corruption",
        }
        for table in payload["tables"].values():
            validate_degradation_dict(table)


class TestWorkerDeterminism:
    def test_workers_do_not_change_tables(self):
        import dataclasses

        with obs_context():
            serial = degradation.run(FAST)
        with obs_context() as obs:
            pooled = degradation.run(
                dataclasses.replace(FAST, workers=4)
            )
        assert serial.to_json_dict() == pooled.to_json_dict()
        # All four sweeps share the run's one pool.
        assert obs.metrics.counters()["runner.pool_starts"] == 1


class TestCliIntegration:
    def test_degradation_subcommand_and_tables_out(self, tmp_path, capsys):
        out = tmp_path / "tables.json"
        assert (
            main(["degradation", "--fast", "--tables-out", str(out)]) == 0
        )
        printed = capsys.readouterr().out
        assert "Degradation: peak_envelope under antenna_dropout" in printed
        payload = json.loads(out.read_text())
        tables = payload["experiments"]["degradation"]["tables"]
        for table in tables.values():
            validate_degradation_dict(table)

    def test_campaign_metrics_reach_obs_dumps(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "degradation",
                    "--fast",
                    "--metrics-out",
                    str(metrics_path),
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        metrics = json.loads(metrics_path.read_text())
        counters = metrics["counters"]
        assert counters["faults.campaign_points"] > 0
        assert counters["faults.campaign_trials"] > 0
        span_names = {
            json.loads(line)["name"]
            for line in trace_path.read_text().splitlines()
        }
        assert "faults.campaign" in span_names
        assert "faults.point" in span_names
