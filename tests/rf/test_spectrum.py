"""Tests for the spectrum oracle: CIB stays in one channel."""

import numpy as np
import pytest

from repro.core.plan import paper_plan
from repro.errors import ConfigurationError
from tests.reference.beamformer import CIBBeamformer
from tests.reference.spectrum import ensemble_spectrum, periodogram


class TestPeriodogram:
    def test_single_tone_peak(self):
        fs = 10e3
        t = np.arange(4096) / fs
        tone = np.exp(1j * 2 * np.pi * 440.0 * t)
        spectrum = periodogram(tone, fs)
        assert spectrum.peak_frequency_hz() == pytest.approx(440.0, abs=fs / 4096 * 2)

    def test_negative_frequency_resolved(self):
        fs = 10e3
        t = np.arange(4096) / fs
        tone = np.exp(-1j * 2 * np.pi * 1000.0 * t)
        spectrum = periodogram(tone, fs)
        assert spectrum.peak_frequency_hz() == pytest.approx(-1000.0, abs=10.0)

    def test_total_power_positive(self):
        rng = np.random.default_rng(0)
        spectrum = periodogram(rng.normal(size=1024) + 0j, 1e3)
        assert spectrum.total_power() > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            periodogram(np.ones(4, dtype=complex), 1e3)
        with pytest.raises(ConfigurationError):
            periodogram(np.ones(100, dtype=complex), 0.0)


class TestOccupiedBandwidth:
    def test_tone_obw_is_narrow(self):
        fs = 10e3
        t = np.arange(8192) / fs
        tone = np.exp(1j * 2 * np.pi * 200.0 * t)
        spectrum = periodogram(tone, fs)
        assert spectrum.occupied_bandwidth_hz() < 50.0

    def test_white_noise_obw_is_wide(self):
        rng = np.random.default_rng(1)
        noise = rng.normal(size=8192) + 1j * rng.normal(size=8192)
        spectrum = periodogram(noise, 10e3)
        assert spectrum.occupied_bandwidth_hz() > 0.8 * 10e3

    def test_fraction_validation(self):
        spectrum = periodogram(np.ones(64, dtype=complex), 1e3)
        with pytest.raises(ValueError):
            spectrum.occupied_bandwidth_hz(1.5)


class TestCibSpectrum:
    def test_unmodulated_ensemble_occupies_one_channel(self, rng):
        """All ten carriers sit within the 137 Hz offset spread -- CIB is
        a single-channel system from the regulator's point of view."""
        beamformer = CIBBeamformer(paper_plan(), sample_rate_hz=4096.0)
        frame = beamformer.carrier_streams(8192, rng)
        spectrum = ensemble_spectrum(frame.streams, 4096.0)
        obw = spectrum.occupied_bandwidth_hz()
        assert obw <= 300.0
        # Essentially no energy outside +/- 500 Hz of the center.
        assert spectrum.power_outside_hz(500.0) < 0.01

    def test_modulated_frame_bandwidth_is_the_commands(self, rng):
        """The PIE modulation (tens of kHz), not the CIB offsets, sets the
        transmitted bandwidth."""
        from repro.gen2.commands import Query
        from repro.gen2.pie import PIEEncoder

        fs = 1e6
        command = PIEEncoder(sample_rate_hz=fs).encode(Query(q=0).to_bits())
        beamformer = CIBBeamformer(paper_plan(), sample_rate_hz=fs)
        frame = beamformer.modulated_streams(command, rng)
        spectrum = ensemble_spectrum(frame.streams, fs)
        # OOK pulses have slow sinc tails, so use the 90% bandwidth; it is
        # set by the ~25 us PIE symbols (tens of kHz), five orders of
        # magnitude above the 137 Hz CIB offset spread.
        obw = spectrum.occupied_bandwidth_hz(0.9)
        assert 5e3 < obw < 400e3

    def test_ensemble_validation(self):
        with pytest.raises(ConfigurationError):
            ensemble_spectrum(np.ones(16, dtype=complex), 1e3)
