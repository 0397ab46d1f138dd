"""Tests for the diode oracles in tests/reference/rectifier.py."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from tests.reference.rectifier import IdealDiode, ShockleyDiode, ThresholdDiode


class TestIdealDiode:
    def test_conducts_any_positive(self):
        diode = IdealDiode()
        assert diode.conducts(np.array([1e-9]))[0]
        assert not diode.conducts(np.array([-1e-9]))[0]

    def test_linear_current(self):
        diode = IdealDiode(on_conductance_s=2.0)
        assert diode.current(np.array([0.5]))[0] == pytest.approx(1.0)

    def test_blocks_reverse(self):
        diode = IdealDiode()
        assert diode.current(np.array([-1.0]))[0] == 0.0

    def test_zero_forward_drop(self):
        assert IdealDiode().forward_drop() == 0.0


class TestThresholdDiode:
    def test_off_below_threshold(self):
        diode = ThresholdDiode(threshold_v=0.3)
        assert diode.current(np.array([0.29]))[0] == 0.0
        assert not diode.conducts(np.array([0.3]))[0]

    def test_on_above_threshold(self):
        diode = ThresholdDiode(threshold_v=0.3)
        assert diode.current(np.array([0.5]))[0] == pytest.approx(0.2)
        assert diode.conducts(np.array([0.31]))[0]

    def test_forward_drop_is_threshold(self):
        assert ThresholdDiode(0.25).forward_drop() == 0.25

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ThresholdDiode(threshold_v=-0.1)
        with pytest.raises(ConfigurationError):
            ThresholdDiode(on_conductance_s=0)


class TestShockleyDiode:
    def test_exponential_growth(self):
        diode = ShockleyDiode()
        low = diode.current(np.array([0.2]))[0]
        high = diode.current(np.array([0.4]))[0]
        assert high / low > 100

    def test_reverse_saturation(self):
        diode = ShockleyDiode(saturation_current_a=1e-8)
        reverse = diode.current(np.array([-1.0]))[0]
        assert reverse == pytest.approx(-1e-8, rel=0.01)

    def test_forward_drop_in_ic_range(self):
        """The smooth model's effective threshold must land in the
        0.2-0.4 V range the paper cites for IC processes."""
        drop = ShockleyDiode().forward_drop()
        assert 0.2 <= drop <= 0.4

    def test_conducts_matches_forward_drop(self):
        diode = ShockleyDiode()
        drop = diode.forward_drop()
        assert diode.conducts(np.array([drop * 1.05]))[0]
        assert not diode.conducts(np.array([drop * 0.9]))[0]

    def test_overflow_clamped(self):
        diode = ShockleyDiode()
        current = diode.current(np.array([100.0]))
        assert np.isfinite(current[0])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShockleyDiode(saturation_current_a=0)
        with pytest.raises(ConfigurationError):
            ShockleyDiode(ideality=0.5)
