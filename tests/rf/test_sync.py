"""Tests for the reference clock and trigger domain of the SDR oracle."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from tests.reference.sdr import ReferenceClock, SyncDomain


class TestReferenceClock:
    def test_nominal(self):
        clock = ReferenceClock()
        assert clock.actual_frequency_hz() == pytest.approx(10e6)

    def test_fractional_error_propagates_to_rf(self):
        clock = ReferenceClock(fractional_error=1e-6)
        rf = clock.rf_frequency_hz(915e6)
        assert rf == pytest.approx(915e6 * (1 + 1e-6))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReferenceClock(frequency_hz=0)
        with pytest.raises(ValueError):
            ReferenceClock().rf_frequency_hz(-1)


class TestSyncDomain:
    def test_trigger_offsets_shape(self, rng):
        domain = SyncDomain(8)
        offsets = domain.trigger_offsets(rng)
        assert offsets.shape == (8,)

    def test_zero_jitter(self, rng):
        domain = SyncDomain(4, trigger_jitter_std_s=0.0)
        assert np.all(domain.trigger_offsets(rng) == 0)
        assert domain.worst_case_skew_s(rng) == 0.0

    def test_jitter_scale(self):
        rng = np.random.default_rng(0)
        domain = SyncDomain(100, trigger_jitter_std_s=100e-9)
        offsets = domain.trigger_offsets(rng)
        assert np.std(offsets) == pytest.approx(100e-9, rel=0.3)

    def test_command_overlap_near_one_for_pps_jitter(self, rng):
        """~100 ns of jitter against an 800 us query is negligible."""
        domain = SyncDomain(8)
        overlap = domain.command_overlap_fraction(800e-6, rng)
        assert overlap > 0.99

    def test_command_overlap_degrades_with_bad_sync(self, rng):
        domain = SyncDomain(8, trigger_jitter_std_s=200e-6)
        overlap = domain.command_overlap_fraction(800e-6, rng)
        assert overlap < 0.9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SyncDomain(0)
        with pytest.raises(ConfigurationError):
            SyncDomain(2, trigger_jitter_std_s=-1)
        with pytest.raises(ValueError):
            SyncDomain(2).command_overlap_fraction(0, np.random.default_rng(0))
