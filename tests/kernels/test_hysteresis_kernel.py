"""Parity tests: closed-form hysteresis masks vs the scalar state machine."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.harvester.storage import PowerManager
from repro.kernels import hysteresis_mask_batch
from tests.reference.kernels import powered_mask_scalar


def _scalar_rows(traces, operate, brownout):
    manager = PowerManager(
        operate_voltage_v=operate, brownout_voltage_v=brownout
    )
    return np.vstack(
        [powered_mask_scalar(manager, row) for row in np.atleast_2d(traces)]
    )


class TestParity:
    @pytest.mark.parametrize("n_rows", [1, 5, 32])
    def test_random_traces_bitwise(self, n_rows):
        rng = np.random.default_rng(21)
        traces = rng.uniform(0.0, 2.5, (n_rows, 400))
        mask = hysteresis_mask_batch(traces, 1.8, 1.4)
        assert mask.dtype == bool
        assert np.array_equal(mask, _scalar_rows(traces, 1.8, 1.4))

    def test_power_manager_delegates_to_kernel(self):
        rng = np.random.default_rng(3)
        trace = rng.uniform(0.0, 2.5, 600)
        manager = PowerManager()
        assert np.array_equal(
            manager.powered_mask(trace), powered_mask_scalar(manager, trace)
        )

    def test_one_dimensional_shape_round_trips(self):
        trace = np.array([0.0, 2.0, 1.5, 1.0])
        mask = hysteresis_mask_batch(trace, 1.8, 1.4)
        assert mask.shape == trace.shape
        assert mask.tolist() == [False, True, True, False]


class TestEdgeCases:
    def test_trace_starting_above_operate(self):
        trace = np.array([2.0, 1.5, 1.41, 1.39, 1.8, 1.4])
        assert np.array_equal(
            hysteresis_mask_batch(trace, 1.8, 1.4),
            _scalar_rows(trace, 1.8, 1.4)[0],
        )

    def test_samples_exactly_at_boundaries(self):
        # Exactly at brownout stays on (>=); exactly at operate turns on.
        trace = np.array([1.8, 1.4, 1.4, 1.3999999999, 1.8, 1.4])
        mask = hysteresis_mask_batch(trace, 1.8, 1.4)
        assert np.array_equal(mask, _scalar_rows(trace, 1.8, 1.4)[0])
        assert mask.tolist() == [True, True, True, False, True, True]

    def test_never_decisive_trace_stays_off(self):
        # Every sample inside the hysteresis band: the chip never turns on.
        trace = np.full(10, 1.6)
        assert not hysteresis_mask_batch(trace, 1.8, 1.4).any()

    def test_empty_trace(self):
        assert hysteresis_mask_batch(np.empty(0), 1.8, 1.4).size == 0
        assert hysteresis_mask_batch(np.empty((3, 0)), 1.8, 1.4).shape == (
            3,
            0,
        )

    def test_zero_brownout(self):
        # brownout = 0 means a powered chip can only die at v < 0.
        trace = np.array([2.0, 0.0, -0.5, 2.0])
        assert np.array_equal(
            hysteresis_mask_batch(trace, 1.8, 0.0),
            _scalar_rows(trace, 1.8, 0.0)[0],
        )


class TestValidation:
    def test_rejects_bad_thresholds(self):
        with pytest.raises(ConfigurationError):
            hysteresis_mask_batch(np.ones(3), 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            hysteresis_mask_batch(np.ones(3), 1.8, 1.8)
        with pytest.raises(ConfigurationError):
            hysteresis_mask_batch(np.ones(3), 1.8, -0.1)
