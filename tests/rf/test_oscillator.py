"""Tests for the PLL and soft-offset models of the SDR oracle."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from tests.reference.sdr import Oscillator, SoftOffsetSynthesizer


class TestOscillator:
    def test_random_initial_phase(self):
        phases = {
            Oscillator(915e6, np.random.default_rng(seed)).initial_phase_rad
            for seed in range(10)
        }
        assert len(phases) == 10
        assert all(0 <= p < 2 * math.pi for p in phases)

    def test_relock_changes_phase(self, rng):
        oscillator = Oscillator(915e6, rng)
        before = oscillator.initial_phase_rad
        oscillator.relock()
        assert oscillator.initial_phase_rad != before

    def test_phase_slope_is_frequency(self, rng):
        oscillator = Oscillator(100.0, rng)
        t = np.array([0.0, 1.0])
        phase = oscillator.phase_at(t)
        assert phase[1] - phase[0] == pytest.approx(2 * math.pi * 100.0)

    def test_frequency_error_shifts_slope(self, rng):
        oscillator = Oscillator(100.0, rng, frequency_error_hz=1.0)
        t = np.array([0.0, 1.0])
        phase = oscillator.phase_at(t)
        assert phase[1] - phase[0] == pytest.approx(2 * math.pi * 101.0)

    def test_carrier_unit_magnitude(self, rng):
        oscillator = Oscillator(915e6, rng)
        carrier = oscillator.carrier(np.linspace(0, 1e-6, 50))
        assert np.allclose(np.abs(carrier), 1.0)

    def test_phase_noise_accumulates(self):
        rng = np.random.default_rng(0)
        noisy = Oscillator(1.0, rng, phase_noise_std_rad_per_sqrt_s=0.5)
        t = np.linspace(0, 10, 1000)
        carrier = noisy.carrier(t)
        ideal = np.exp(1j * noisy.phase_at(t))
        assert not np.allclose(carrier, ideal)

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            Oscillator(0.0, rng)
        with pytest.raises(ConfigurationError):
            Oscillator(1.0, rng, phase_noise_std_rad_per_sqrt_s=-1)


class TestSoftOffsetSynthesizer:
    def test_rotation_frequency(self):
        synthesizer = SoftOffsetSynthesizer(7.0, 1000.0)
        samples = synthesizer.rotate(np.ones(1000, dtype=complex))
        # After 1 second at 7 Hz the phase advanced 7 full turns.
        angles = np.angle(samples)
        unwrapped = np.unwrap(angles)
        assert unwrapped[-1] == pytest.approx(
            2 * math.pi * 7.0 * 999 / 1000, rel=1e-6
        )

    def test_streaming_continuity(self):
        synthesizer = SoftOffsetSynthesizer(5.0, 1000.0)
        whole = SoftOffsetSynthesizer(5.0, 1000.0).rotate(
            np.ones(200, dtype=complex)
        )
        first = synthesizer.rotate(np.ones(100, dtype=complex))
        second = synthesizer.rotate(np.ones(100, dtype=complex))
        assert np.allclose(np.concatenate([first, second]), whole)

    def test_reset(self):
        synthesizer = SoftOffsetSynthesizer(5.0, 1000.0)
        first = synthesizer.rotate(np.ones(10, dtype=complex))
        synthesizer.reset()
        assert synthesizer.sample_index == 0
        again = synthesizer.rotate(np.ones(10, dtype=complex))
        assert np.allclose(first, again)

    def test_zero_offset_is_identity(self):
        synthesizer = SoftOffsetSynthesizer(0.0, 1000.0)
        data = np.exp(1j * np.linspace(0, 1, 20))
        assert np.allclose(synthesizer.rotate(data), data)

    def test_nyquist_guard(self):
        with pytest.raises(ConfigurationError):
            SoftOffsetSynthesizer(600.0, 1000.0)
