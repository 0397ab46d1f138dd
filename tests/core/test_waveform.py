"""Tests for repro.core.waveform (Sections 3.3-3.4)."""

import math

import numpy as np
import pytest

from repro.core import waveform
from repro.core.plan import paper_plan


OFFSETS = paper_plan().offsets_array()


class TestEnvelope:
    def test_bounded_by_n(self, rng):
        betas = rng.uniform(0, 2 * math.pi, 10)
        t = waveform.time_grid(OFFSETS)
        y = waveform.envelope(OFFSETS, betas, t)
        assert np.all(y <= 10.0 + 1e-9)
        assert np.all(y >= 0.0)

    def test_aligned_phases_reach_n(self):
        """With beta = 0, all carriers align at t = 0: Y(0) = N."""
        y = waveform.envelope(OFFSETS, np.zeros(10), np.array([0.0]))
        assert y[0] == pytest.approx(10.0)

    def test_single_carrier_constant(self, rng):
        t = np.linspace(0, 1, 100)
        y = waveform.envelope(np.array([0.0]), np.array([1.3]), t)
        assert np.allclose(y, 1.0)

    def test_periodicity(self, rng):
        """Integer offsets: the envelope repeats every second (Sec. 3.6)."""
        betas = rng.uniform(0, 2 * math.pi, 10)
        t = np.linspace(0, 0.9, 50)
        early = waveform.envelope(OFFSETS, betas, t)
        late = waveform.envelope(OFFSETS, betas, t + 1.0)
        assert np.allclose(early, late, atol=1e-9)

    def test_amplitude_weighting(self):
        amplitudes = np.array([2.0, 3.0])
        y = waveform.envelope(
            np.array([0.0, 1.0]), np.zeros(2), np.array([0.0]), amplitudes
        )
        assert y[0] == pytest.approx(5.0)

    def test_batched_betas(self, rng):
        betas = rng.uniform(0, 2 * math.pi, (7, 10))
        t = np.linspace(0, 1, 64)
        y = waveform.envelope(OFFSETS, betas, t)
        assert y.shape == (7, 64)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            waveform.envelope(OFFSETS, np.zeros(5), np.array([0.0]))


class TestPeak:
    def test_peak_location_with_zero_betas(self):
        peak, t_peak = waveform.peak_envelope(OFFSETS, np.zeros(10))
        assert peak == pytest.approx(10.0, rel=1e-3)
        assert t_peak == pytest.approx(0.0, abs=1e-3)

    def test_peak_power_gain_is_square(self, rng):
        betas = rng.uniform(0, 2 * math.pi, 10)
        peak, _ = waveform.peak_envelope(OFFSETS, betas)
        gain = waveform.peak_power_gain(OFFSETS, betas)
        assert gain == pytest.approx(peak**2)

    def test_batch_peaks_match_individual(self, rng):
        betas = rng.uniform(0, 2 * math.pi, (4, 10))
        t = waveform.time_grid(OFFSETS)
        batch = waveform.batch_peak_envelope(OFFSETS, betas, t)
        for index in range(4):
            y = waveform.envelope(OFFSETS, betas[index], t)
            assert batch[index] == pytest.approx(np.max(y))


class TestAveragePower:
    def test_equals_sum_of_squares(self, rng):
        """Sec. 3.4: 'the average received energy is the same' --
        mean |y|^2 = sum a_i^2 for distinct offsets, independent of beta."""
        betas = rng.uniform(0, 2 * math.pi, 10)
        average = waveform.average_power(OFFSETS, betas)
        assert average == pytest.approx(10.0, rel=0.02)

    def test_weighted(self, rng):
        offsets = np.array([0.0, 3.0, 11.0])
        amplitudes = np.array([1.0, 2.0, 0.5])
        betas = rng.uniform(0, 2 * math.pi, 3)
        average = waveform.average_power(offsets, betas, amplitudes=amplitudes)
        assert average == pytest.approx(float(np.sum(amplitudes**2)), rel=0.02)


class TestExpectedPeak:
    def test_reasonable_range(self, rng):
        value = waveform.expected_peak(OFFSETS, rng, n_draws=32)
        # Between sqrt(N) (incoherent) and N (perfect).
        assert math.sqrt(10) < value <= 10.0

    def test_single_antenna_is_one(self, rng):
        assert waveform.expected_peak(np.array([0.0]), rng, 8) == pytest.approx(1.0)

    def test_invalid_draws(self, rng):
        with pytest.raises(ValueError):
            waveform.expected_peak(OFFSETS, rng, n_draws=0)


class TestConduction:
    def test_zero_threshold_always_conducting(self, rng):
        betas = rng.uniform(0, 2 * math.pi, 10)
        assert waveform.conduction_fraction(OFFSETS, betas, 0.0) == pytest.approx(
            1.0, abs=0.01
        )

    def test_above_n_never_conducting(self, rng):
        betas = rng.uniform(0, 2 * math.pi, 10)
        assert waveform.conduction_fraction(OFFSETS, betas, 11.0) == 0.0

    def test_monotone_in_threshold(self, rng):
        betas = rng.uniform(0, 2 * math.pi, 10)
        fractions = [
            waveform.conduction_fraction(OFFSETS, betas, threshold)
            for threshold in (1.0, 3.0, 6.0, 9.0)
        ]
        assert all(b <= a for a, b in zip(fractions, fractions[1:]))


class TestFluctuation:
    def test_worst_case_within_eq8_bound(self):
        """Measured fluctuation from an aligned peak must respect the
        first-order Eq. 8 bound."""
        from repro.core.constraints import FlatnessConstraint

        constraint = FlatnessConstraint()
        measured = waveform.worst_case_peak_fluctuation(
            OFFSETS, window_s=constraint.query_duration_s
        )
        predicted = constraint.predicted_peak_fluctuation(OFFSETS)
        assert measured <= predicted + 1e-6

    def test_flat_for_single_carrier(self):
        value = waveform.fluctuation_over_window(
            np.array([0.0]), np.array([0.0]), window_s=1e-3, start_s=0.0
        )
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_large_window_fluctuates_fully(self, rng):
        betas = rng.uniform(0, 2 * math.pi, 10)
        value = waveform.fluctuation_over_window(
            OFFSETS, betas, window_s=1.0, start_s=0.0, n_samples=4096
        )
        assert value > 0.5


class TestSynthesis:
    def test_matches_envelope(self, rng):
        betas = rng.uniform(0, 2 * math.pi, 10)
        t = np.arange(100) / 10e3
        samples = waveform.complex_baseband(OFFSETS, betas, t)
        assert np.allclose(np.abs(samples), waveform.envelope(OFFSETS, betas, t))

    def test_time_grid_resolution(self):
        t = waveform.time_grid(OFFSETS, duration_s=1.0, oversample=16)
        assert t.size >= 16 * 137  # oversample x bandwidth
