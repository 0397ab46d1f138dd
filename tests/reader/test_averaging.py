"""Tests for the coherent-averaging oracle (Section 5b) in tests/reference/kernels.py."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from tests.reference.kernels import coherent_average


class TestCoherentAverage:
    def test_signal_preserved(self):
        signal = np.array([1.0, -1.0, 1.0])
        averaged = coherent_average([signal, signal, signal])
        assert np.allclose(averaged, signal)

    def test_noise_shrinks_by_sqrt_m(self):
        rng = np.random.default_rng(0)
        captures = [rng.normal(0, 1, 4000) for _ in range(16)]
        averaged = coherent_average(captures)
        assert np.std(averaged) == pytest.approx(1 / 4.0, rel=0.15)

    def test_snr_improves_linearly_in_power(self):
        rng = np.random.default_rng(1)
        signal = np.tile([1.0, -1.0], 500)
        single = signal + rng.normal(0, 2.0, 1000)
        many = coherent_average(
            [signal + rng.normal(0, 2.0, 1000) for _ in range(25)]
        )
        snr_single = np.mean(single * signal) ** 2 / np.var(single - signal)
        snr_many = np.mean(many * signal) ** 2 / np.var(many - signal)
        assert snr_many > 10 * snr_single

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            coherent_average([])

    def test_misaligned_rejected(self):
        with pytest.raises(ConfigurationError):
            coherent_average([np.ones(3), np.ones(4)])
