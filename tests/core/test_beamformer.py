"""Tests for the sample-level CIB beamformer oracle."""

import numpy as np
import pytest

from repro.core.plan import CarrierPlan, paper_plan
from repro.em.channel import ChannelRealization
from repro.errors import ConfigurationError
from tests.reference.beamformer import CIBBeamformer


class TestConstruction:
    def test_validates_plan_constraints(self):
        violating = CarrierPlan(offsets_hz=tuple(f * 40 for f in paper_plan().offsets_hz))
        with pytest.raises(Exception):
            CIBBeamformer(violating)
        CIBBeamformer(violating, validate=False)  # explicit opt-out

    def test_nyquist_guard(self):
        plan = CarrierPlan(offsets_hz=(0.0, 100.0))
        with pytest.raises(ConfigurationError):
            CIBBeamformer(plan, sample_rate_hz=150.0)

    def test_envelope_period(self):
        assert CIBBeamformer(paper_plan()).envelope_period_s() == 1.0


class TestCarrierStreams:
    def test_shape_and_amplitude(self, rng):
        beamformer = CIBBeamformer(paper_plan(), sample_rate_hz=10e3)
        frame = beamformer.carrier_streams(500, rng)
        assert frame.streams.shape == (10, 500)
        assert np.allclose(np.abs(frame.streams), 1.0)
        assert frame.duration_s == pytest.approx(0.05)

    def test_offsets_realized(self, rng):
        plan = paper_plan().subset(2)
        beamformer = CIBBeamformer(plan, sample_rate_hz=1e3)
        frame = beamformer.carrier_streams(1000, rng)
        # Antenna 1 rotates at 7 Hz relative to antenna 0.
        relative = frame.streams[1] / frame.streams[0]
        angles = np.unwrap(np.angle(relative))
        slope = (angles[-1] - angles[0]) / (999 / 1e3)
        assert slope == pytest.approx(2 * np.pi * 7.0, rel=1e-6)

    def test_random_phases_recorded(self, rng):
        beamformer = CIBBeamformer(paper_plan())
        frame = beamformer.carrier_streams(10, rng)
        assert frame.oscillator_phases.shape == (10,)
        assert np.allclose(
            np.angle(frame.streams[:, 0]),
            np.mod(frame.oscillator_phases + np.pi, 2 * np.pi) - np.pi,
        )

    def test_timing_offsets_validation(self, rng):
        beamformer = CIBBeamformer(paper_plan())
        with pytest.raises(ValueError):
            beamformer.carrier_streams(10, rng, timing_offsets_s=np.zeros(3))


class TestModulatedStreams:
    def test_common_envelope(self, rng):
        beamformer = CIBBeamformer(paper_plan(), sample_rate_hz=10e3)
        command = np.array([1.0, 1.0, 0.0, 1.0, 0.0] * 10)
        frame = beamformer.modulated_streams(command, rng)
        for antenna in range(10):
            assert np.allclose(np.abs(frame.streams[antenna]), command)

    def test_envelope_validation(self, rng):
        beamformer = CIBBeamformer(paper_plan())
        with pytest.raises(ValueError):
            beamformer.modulated_streams(np.array([]), rng)
        with pytest.raises(ValueError):
            beamformer.modulated_streams(np.array([-1.0, 1.0]), rng)


class TestReceivedCombining:
    def test_received_baseband_is_weighted_sum(self, rng):
        beamformer = CIBBeamformer(paper_plan().subset(3), sample_rate_hz=10e3)
        frame = beamformer.carrier_streams(64, rng)
        gains = np.array([1.0 + 0j, 0.5j, -0.25])
        realization = ChannelRealization(gains=gains, frequency_hz=915e6)
        combined = frame.received_baseband(realization)
        expected = gains @ frame.streams
        assert np.allclose(combined, expected)

    def test_envelope_bounded_by_gain_sum(self, rng):
        beamformer = CIBBeamformer(paper_plan(), sample_rate_hz=10e3)
        frame = beamformer.carrier_streams(2048, rng)
        gains = np.exp(1j * rng.uniform(0, 2 * np.pi, 10))
        realization = ChannelRealization(gains=gains, frequency_hz=915e6)
        envelope = frame.received_envelope(realization)
        assert np.max(envelope) <= 10.0 + 1e-9

    def test_antenna_count_mismatch(self, rng):
        beamformer = CIBBeamformer(paper_plan().subset(3))
        frame = beamformer.carrier_streams(16, rng)
        realization = ChannelRealization(
            gains=np.ones(5, dtype=complex), frequency_hz=915e6
        )
        with pytest.raises(ValueError):
            frame.received_baseband(realization)
