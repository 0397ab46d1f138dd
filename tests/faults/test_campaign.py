"""Tests for repro.faults.campaign -- severity sweeps and their schema."""

import numpy as np
import pytest

from repro.faults.campaign import (
    DEGRADATION_SCHEMA_VERSION,
    DegradationTable,
    decode_success_chunk_builder,
    peak_envelope_chunk,
    peak_envelope_chunk_builder,
    run_campaign,
    validate_degradation_dict,
)
from repro.faults.plan import EMPTY_PLAN, antenna_dropout, bit_corruption
from repro.obs.context import obs_context
from repro.runtime.runner import TrialRunner

OFFSETS = (0.0, 7.0, 20.0, 49.0)


def dropout_plan(severity):
    count = int(round(severity))
    return EMPTY_PLAN if count == 0 else antenna_dropout(
        antennas=tuple(range(count))
    )


def corruption_plan(severity):
    return EMPTY_PLAN if severity == 0.0 else bit_corruption(severity)


class TestDegradationTable:
    def table(self):
        return DegradationTable(
            metric="peak",
            fault_kind="dropout",
            severities=(1.0, 2.0),
            values=(3.0, 2.0),
            baseline=4.0,
            n_trials=8,
            seed=7,
        )

    def test_relative(self):
        assert self.table().relative() == (0.75, 0.5)

    def test_relative_nan_for_zero_baseline(self):
        table = DegradationTable(
            metric="m", fault_kind="f", severities=(1.0,), values=(1.0,),
            baseline=0.0, n_trials=1, seed=0,
        )
        assert np.isnan(table.relative()[0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DegradationTable(
                metric="m", fault_kind="f", severities=(1.0, 2.0),
                values=(1.0,), baseline=1.0, n_trials=1, seed=0,
            )

    def test_render(self):
        rendered = self.table().table().render()
        assert "peak" in rendered and "dropout" in rendered

    def test_json_roundtrip_validates(self):
        payload = self.table().to_json_dict()
        validate_degradation_dict(payload)  # does not raise
        assert payload["schema_version"] == DEGRADATION_SCHEMA_VERSION


class TestValidateDegradationDict:
    def base(self):
        return DegradationTable(
            metric="m", fault_kind="f", severities=(1.0,), values=(2.0,),
            baseline=4.0, n_trials=8, seed=7,
        ).to_json_dict()

    def test_wrong_version(self):
        payload = self.base()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            validate_degradation_dict(payload)

    def test_missing_metric(self):
        payload = self.base()
        payload["metric"] = ""
        with pytest.raises(ValueError, match="metric"):
            validate_degradation_dict(payload)

    def test_non_numeric_series(self):
        payload = self.base()
        payload["values"] = ["high"]
        with pytest.raises(ValueError, match="values"):
            validate_degradation_dict(payload)

    def test_length_mismatch(self):
        payload = self.base()
        payload["severities"] = [1.0, 2.0]
        with pytest.raises(ValueError, match="lengths"):
            validate_degradation_dict(payload)


class TestRunCampaign:
    def run(self, chunk_size=None):
        with obs_context() as obs:
            table = run_campaign(
                metric="peak_envelope",
                fault_kind="antenna_dropout",
                severities=[1.0, 2.0],
                chunk_builder=peak_envelope_chunk_builder(
                    dropout_plan, OFFSETS, 1.0, seed=5, aligned=True,
                ),
                n_trials=12,
                seed=5,
                runner=TrialRunner(chunk_size=chunk_size),
            )
        return table, obs

    def test_aligned_dropout_reproduces_n_minus_1_law(self):
        table, _ = self.run()
        n = len(OFFSETS)
        assert table.baseline == pytest.approx(n, rel=1e-6)
        for k, rel in zip((1, 2), table.relative()):
            assert rel == pytest.approx((n - k) / n, rel=1e-6)

    def test_chunking_invariance(self):
        whole, _ = self.run()
        split, _ = self.run(chunk_size=5)
        assert whole.values == split.values
        assert whole.baseline == split.baseline

    def test_emits_fault_metrics_and_spans(self):
        _, obs = self.run()
        counters = obs.metrics.counters()
        assert counters["faults.campaign_points"] == 3  # baseline + 2
        assert counters["faults.campaign_trials"] == 36
        names = {span["name"] for span in obs.tracer.to_dicts()}
        assert "faults.campaign" in names
        assert "faults.point" in names
        assert "faults.chunk" in names

    def test_decode_success_reduce(self):
        with obs_context():
            table = run_campaign(
                metric="decode_success",
                fault_kind="bit_corruption",
                severities=[1.0],
                chunk_builder=decode_success_chunk_builder(
                    corruption_plan,
                    payload_bits=(1, 0, 1, 1, 0, 0, 1, 0),
                    samples_per_chip=4,
                    seed=9,
                ),
                n_trials=16,
                seed=9,
                reduce="success_fraction",
            )
        assert table.baseline == 1.0  # clean waveform always decodes
        assert 0.0 <= table.values[0] <= 1.0

    def test_invalid_arguments(self):
        builder = peak_envelope_chunk_builder(
            dropout_plan, OFFSETS, 1.0, seed=5
        )
        with obs_context():
            with pytest.raises(ValueError, match="n_trials"):
                run_campaign("m", "f", [1.0], builder, n_trials=0, seed=5)
            with pytest.raises(ValueError, match="severity"):
                run_campaign("m", "f", [], builder, n_trials=4, seed=5)
            with pytest.raises(ValueError, match="reduce"):
                run_campaign(
                    "m", "f", [1.0], builder, n_trials=4, seed=5,
                    reduce="median",
                )


def test_peak_envelope_chunk_blind_betas_sit_below_aligned():
    with obs_context():
        aligned = peak_envelope_chunk(
            0, 16, OFFSETS, None, 1.0, EMPTY_PLAN, 3, aligned=True
        )
        blind = peak_envelope_chunk(
            0, 16, OFFSETS, None, 1.0, EMPTY_PLAN, 3
        )
    assert np.all(aligned == pytest.approx(len(OFFSETS), rel=1e-6))
    assert np.all(blind <= aligned + 1e-9)
