"""Parity tests: batched rectifier integration vs the scalar reference."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.harvester.rectifier import MultiStageRectifier
from repro.kernels import rectifier_batch


def _reference_rows(envelopes, dt_s, load_resistance_ohms=1e6, v0=0.0):
    """Row-by-row MultiStageRectifier.simulate, the pinned reference."""
    rows = []
    for row in np.atleast_2d(envelopes):
        rectifier = MultiStageRectifier(
            load_resistance_ohms=load_resistance_ohms
        )
        rectifier.capacitor_voltage_v = v0
        rows.append(rectifier.simulate(row, dt_s))
    return np.vstack(rows)


def _noisy_block(n_rows, n_samples, seed=11, scale=2.0):
    rng = np.random.default_rng(seed)
    return scale * np.abs(
        rng.normal(0.6, 0.5, (n_rows, n_samples))
    )


class TestStepParity:
    @pytest.mark.parametrize("n_rows", [1, 3, 17])
    @pytest.mark.parametrize("dt_s", [5e-5, 2e-7])
    def test_bitwise_equal_across_batch_and_regime(self, n_rows, dt_s):
        # 5e-5 s is the coarse regime (dt > Rs*C = 5e-7), 2e-7 s the fine.
        env = _noisy_block(n_rows, 400)
        batched = rectifier_batch(env, dt_s)
        assert np.array_equal(batched, _reference_rows(env, dt_s))

    def test_open_circuit_load(self):
        env = _noisy_block(4, 300)
        batched = rectifier_batch(env, 5e-5, load_resistance_ohms=None)
        reference = _reference_rows(env, 5e-5, load_resistance_ohms=None)
        assert np.array_equal(batched, reference)

    def test_nonzero_initial_voltage(self):
        env = _noisy_block(3, 200)
        batched = rectifier_batch(env, 5e-5, initial_voltage_v=1.25)
        reference = _reference_rows(env, 5e-5, v0=1.25)
        assert np.array_equal(batched, reference)

    def test_per_row_initial_voltages(self):
        env = _noisy_block(3, 200)
        v0 = np.array([0.0, 0.7, 2.1])
        batched = rectifier_batch(env, 5e-5, initial_voltage_v=v0)
        for row in range(3):
            assert np.array_equal(
                batched[row],
                _reference_rows(env[row], 5e-5, v0=float(v0[row]))[0],
            )

    def test_one_dimensional_input_round_trips(self):
        env = _noisy_block(1, 250)[0]
        batched = rectifier_batch(env, 5e-5)
        assert batched.shape == env.shape
        assert np.array_equal(batched, _reference_rows(env, 5e-5)[0])


class TestValidation:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            rectifier_batch(np.ones(4), 0.0)

    def test_rejects_bad_circuit_parameters(self):
        with pytest.raises(ConfigurationError):
            rectifier_batch(np.ones(4), 1e-6, n_stages=0)
        with pytest.raises(ConfigurationError):
            rectifier_batch(np.ones(4), 1e-6, source_resistance_ohms=0.0)
        with pytest.raises(ConfigurationError):
            rectifier_batch(np.ones(4), 1e-6, load_resistance_ohms=-1.0)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            rectifier_batch(np.empty((0,)), 1e-6)
