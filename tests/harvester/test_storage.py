"""Tests for the power-up oracle in tests/reference/rectifier.py."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from tests.reference.rectifier import PowerManager


class TestPowerManager:
    def test_ever_powers_up(self):
        manager = PowerManager()
        assert manager.ever_powers_up(np.array([0.0, 2.0]))
        assert not manager.ever_powers_up(np.array([0.0, 1.0]))

    def test_time_to_power_up(self):
        manager = PowerManager()
        trace = np.array([0.0, 1.0, 1.9, 2.0])
        assert manager.time_to_power_up_s(trace, dt_s=0.5) == pytest.approx(1.0)
        assert manager.time_to_power_up_s(np.array([0.1]), 0.5) is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PowerManager(operate_voltage_v=0)
