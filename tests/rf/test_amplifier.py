"""Tests for repro.rf.amplifier."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from repro.errors import ConfigurationError
from repro.rf.amplifier import PowerAmplifier


def _output_amplitude(pa, drive):
    return abs(pa.amplify(np.array([complex(drive, 0.0)]))[0])


def _compression_db(pa, drive):
    """Gain compression at ``drive`` relative to the small-signal gain."""
    ideal = drive * 10.0 ** (pa.gain_db / 20.0)
    return -20.0 * math.log10(_output_amplitude(pa, drive) / ideal)


class TestPowerAmplifier:
    def test_small_signal_gain(self):
        pa = PowerAmplifier(gain_db=20.0)
        tiny = np.array([1e-6 + 0j])
        out = pa.amplify(tiny)
        assert abs(out[0]) == pytest.approx(1e-6 * 10.0, rel=1e-3)

    def test_p1db_point_is_honored(self):
        pa = PowerAmplifier(gain_db=20.0, p1db_dbm=30.0)
        v_at_1db = brentq(lambda v: _compression_db(pa, v) - 1.0, 1e-6, 10.0)
        power_w = _output_amplitude(pa, v_at_1db) ** 2 / (2.0 * pa.load_ohms)
        assert 10.0 * math.log10(power_w / 1e-3) == pytest.approx(30.0, abs=0.05)

    def test_saturation_monotone(self):
        pa = PowerAmplifier()
        drives = np.linspace(0.01, 5.0, 50)
        outputs = [_output_amplitude(pa, d) for d in drives]
        assert all(b >= a for a, b in zip(outputs, outputs[1:]))
        assert outputs[-1] <= pa._v_sat

    def test_compression_grows_with_drive(self):
        pa = PowerAmplifier()
        assert _compression_db(pa, 0.001) < 0.01
        assert _compression_db(pa, 1.0) > _compression_db(pa, 0.1)

    def test_zero_input_passes(self):
        pa = PowerAmplifier()
        out = pa.amplify(np.zeros(4, dtype=complex))
        assert np.allclose(out, 0.0)

    def test_phase_preserved(self):
        pa = PowerAmplifier()
        sample = np.array([0.05 * np.exp(1j * 0.7)])
        out = pa.amplify(sample)
        assert np.angle(out[0]) == pytest.approx(0.7)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PowerAmplifier(smoothness=0)
        with pytest.raises(ConfigurationError):
            PowerAmplifier(load_ohms=-1)
