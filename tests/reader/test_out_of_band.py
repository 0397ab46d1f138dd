"""Tests for repro.reader.out_of_band (Section 4)."""

import numpy as np
import pytest

from repro.em.channel import BlindChannel
from repro.em.layers import LayeredPath
from repro.errors import ConfigurationError
from repro.gen2.fm0 import chips_to_waveform, encode_chips
from repro.reader.jamming import JammingEstimate
from repro.reader.out_of_band import OutOfBandReader
from repro.rf.receiver import SawFilter


def make_channel(n=1, distance=1.0):
    return BlindChannel(
        air_distances_m=np.full(n, distance),
        tissue_path=LayeredPath([]),
        frequency_hz=880e6,
    )


def make_response(bits=(1, 0) * 8, spc=10):
    return chips_to_waveform(encode_chips(bits), spc)


class TestBudget:
    def test_backscatter_amplitude_falls_with_distance(self, rng):
        reader = OutOfBandReader()
        near = reader.backscatter_amplitude_v(
            make_channel(distance=1.0), 0.01, 0.5, rng
        )
        far = reader.backscatter_amplitude_v(
            make_channel(distance=2.0), 0.01, 0.5, rng
        )
        # Round trip: amplitude falls as 1/r^2.
        assert near / far == pytest.approx(4.0, rel=0.05)

    def test_modulation_depth_scales(self, rng):
        reader = OutOfBandReader()
        deep = reader.backscatter_amplitude_v(make_channel(), 0.01, 1.0, rng)
        shallow = reader.backscatter_amplitude_v(make_channel(), 0.01, 0.5, rng)
        assert deep == pytest.approx(2.0 * shallow, rel=0.05)

    @pytest.mark.parametrize("eirp", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("error", [ValueError, ConfigurationError])
    def test_rejects_bad_eirp(self, eirp, error):
        with pytest.raises(error, match="positive and finite"):
            OutOfBandReader(eirp_w=eirp)

    def test_validation(self, rng):
        reader = OutOfBandReader()
        with pytest.raises(ConfigurationError):
            reader.backscatter_amplitude_v(make_channel(), 0.01, 0.0, rng)
        with pytest.raises(ConfigurationError):
            reader.backscatter_amplitude_v(make_channel(), 0.0, 0.5, rng)
        with pytest.raises(ConfigurationError):
            OutOfBandReader(eirp_w=0.0)


class TestCaptureAndDecode:
    def test_clean_capture_decodes(self, rng):
        reader = OutOfBandReader()
        bits = tuple(int(b) for b in rng.integers(0, 2, 16))
        response = chips_to_waveform(encode_chips(bits), 10)
        capture = reader.capture_response(response, 1e-4, 5, rng)
        result = reader.decode(capture, 16, 10)
        assert result.success
        assert result.bits == bits

    def test_averaging_recovers_weak_signal(self):
        """A response buried in noise decodes after enough periods."""
        rng = np.random.default_rng(11)
        reader = OutOfBandReader(noise_figure_db=30.0)
        bits = tuple(int(b) for b in rng.integers(0, 2, 16))
        response = chips_to_waveform(encode_chips(bits), 10)
        amplitude = 0.6 * reader.chain.noise_std()
        single = reader.capture_response(response, amplitude, 1, rng)
        many = reader.capture_response(response, amplitude, 200, rng)
        single_result = reader.decode(single, 16, 10)
        many_result = reader.decode(many, 16, 10)
        assert many_result.correlation > single_result.correlation
        assert many_result.success

    def test_jamming_with_saw_still_decodes(self, rng):
        reader = OutOfBandReader()
        bits = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0)
        response = chips_to_waveform(encode_chips(bits), 10)
        jamming = JammingEstimate(
            incident_power_w=1.0, peak_power_w=8.0, residual_power_w=8e-6
        )
        capture = reader.capture_response(
            response, 1e-4, 10, rng, jamming=jamming,
            beamformer_frequency_hz=915e6,
        )
        result = reader.decode(capture, 16, 10)
        assert result.success
        assert result.bits == bits

    def test_in_band_jamming_kills_decode(self, rng):
        """An in-band reader (no rejection at the CIB carrier) loses the
        response to receiver saturation -- the Section 4 motivation."""
        no_rejection = SawFilter(
            center_hz=915e6, bandwidth_hz=80e6, rejection_db=0.0
        )
        reader = OutOfBandReader(carrier_frequency_hz=915e6, saw=no_rejection)
        bits = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0)
        response = chips_to_waveform(encode_chips(bits), 10)
        jamming = JammingEstimate(
            incident_power_w=1.0, peak_power_w=8.0, residual_power_w=8.0
        )
        capture = reader.capture_response(
            response, 1e-4, 10, rng, jamming=jamming,
            beamformer_frequency_hz=915e6,
        )
        result = reader.decode(capture, 16, 10)
        assert not result.success

    def test_validation(self, rng):
        reader = OutOfBandReader()
        with pytest.raises(ConfigurationError):
            reader.capture_response(np.ones(10), 1.0, 0, rng)
        with pytest.raises(ConfigurationError):
            reader.capture_response(np.array([]), 1.0, 1, rng)
