"""Tests for repro.rf.receiver and its scalar receive oracle."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rf.receiver import (
    AnalogToDigitalConverter,
    ReceiveChain,
    SawFilter,
    thermal_noise_power_watts,
)
from tests.reference.kernels import quantize, receive


class TestSawFilter:
    def test_passband_only_insertion_loss(self):
        saw = SawFilter(center_hz=880e6, insertion_loss_db=2.0)
        response = saw.amplitude_response(880e6)
        assert response == pytest.approx(10 ** (-2.0 / 20.0))

    def test_stopband_rejection(self):
        saw = SawFilter(center_hz=880e6, rejection_db=50.0, insertion_loss_db=2.0)
        response = saw.amplitude_response(915e6)
        assert response == pytest.approx(10 ** (-52.0 / 20.0))

    def test_band_edges(self):
        saw = SawFilter(center_hz=880e6, bandwidth_hz=10e6)
        inside = saw.amplitude_response(884.9e6)
        outside = saw.amplitude_response(885.1e6)
        assert inside > outside

    def test_power_rejection_squares(self):
        saw = SawFilter(center_hz=880e6)
        assert saw.power_rejection(915e6) == pytest.approx(
            saw.amplitude_response(915e6) ** 2
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SawFilter(center_hz=0)
        with pytest.raises(ConfigurationError):
            SawFilter(center_hz=880e6, rejection_db=-1)


class TestThermalNoise:
    def test_ktb(self):
        power = thermal_noise_power_watts(1.0, 0.0)
        assert power == pytest.approx(1.38e-23 * 290, rel=0.01)

    def test_noise_figure_multiplies(self):
        base = thermal_noise_power_watts(1e6, 0.0)
        with_nf = thermal_noise_power_watts(1e6, 10.0)
        assert with_nf == pytest.approx(10.0 * base)

    def test_validation(self):
        with pytest.raises(ValueError):
            thermal_noise_power_watts(0, 0)
        with pytest.raises(ValueError):
            thermal_noise_power_watts(1, -1)


class TestAdc:
    def test_quantization_step(self):
        adc = AnalogToDigitalConverter(n_bits=3, full_scale=1.0)
        assert adc.step == pytest.approx(0.25)

    def test_roundtrip_within_half_step(self, rng):
        adc = AnalogToDigitalConverter(n_bits=10, full_scale=1.0)
        samples = rng.uniform(-0.9, 0.9, 50) + 1j * rng.uniform(-0.9, 0.9, 50)
        quantized = quantize(adc, samples)
        assert np.max(np.abs(quantized - samples)) <= adc.step

    def test_clipping(self):
        adc = AnalogToDigitalConverter(n_bits=8, full_scale=1.0)
        out = quantize(adc, np.array([10.0 + 0j]))
        assert abs(out[0].real) <= 1.0


class TestReceiveChain:
    def test_noise_floor_scale(self, rng):
        chain = ReceiveChain(880e6, sample_rate_hz=1e6, noise_figure_db=7.0, adc=None)
        out = receive(chain, np.zeros(20000, dtype=complex), rng)
        measured = np.std(out)
        assert measured == pytest.approx(chain.noise_std(), rel=0.1)

    def test_out_of_band_rejected(self, rng):
        chain = ReceiveChain(880e6, adc=None)
        signal = np.ones(100, dtype=complex)
        jam = np.ones(100, dtype=complex) * 100.0
        out = receive(
            chain, signal, rng, out_of_band=jam, out_of_band_frequency_hz=915e6
        )
        # Jam is knocked down by >50 dB; the in-band signal dominates.
        assert np.mean(np.abs(out)) < 2.0

    def test_mismatched_lengths_rejected(self, rng):
        chain = ReceiveChain(880e6)
        with pytest.raises(ValueError):
            receive(
                chain,
                np.ones(10, dtype=complex),
                rng,
                out_of_band=np.ones(5, dtype=complex),
                out_of_band_frequency_hz=915e6,
            )

    def test_out_of_band_requires_frequency(self, rng):
        chain = ReceiveChain(880e6)
        with pytest.raises(ValueError):
            receive(
                chain, np.ones(10, dtype=complex), rng,
                out_of_band=np.ones(10, dtype=complex),
            )

    def test_agc_preserves_signal_scale(self, rng):
        chain = ReceiveChain(880e6, noise_figure_db=0.0)
        signal = 1e-4 * np.ones(256, dtype=complex)
        out = receive(chain, signal, rng, agc_target=0.5)
        # Referred back to the input, the signal level is preserved.
        assert np.mean(out.real) == pytest.approx(
            1e-4 * chain.saw.amplitude_response(880e6), rel=0.05
        )

    def test_strong_jam_steals_dynamic_range(self, rng):
        """With AGC pinned to a huge jammer, a tiny signal quantizes away."""
        chain = ReceiveChain(
            880e6,
            saw=SawFilter(center_hz=880e6, rejection_db=0.0, insertion_loss_db=0.0),
        )
        signal = 1e-9 * np.ones(256, dtype=complex)
        jam = np.ones(256, dtype=complex) * 10.0
        out = receive(
            chain, signal, rng, out_of_band=jam, out_of_band_frequency_hz=881e6
        )
        recovered = out - np.mean(out)
        assert np.std(recovered.real) > 1e-9 * 10  # signal buried
