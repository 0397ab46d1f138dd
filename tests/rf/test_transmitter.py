"""Tests for the transmit chain of the SDR oracle."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from tests.reference.sdr import TransmitChain


class TestTransmitChain:
    def test_rf_frequency_includes_offset(self, rng):
        chain = TransmitChain(915e6, rng, offset_hz=137.0)
        assert chain.rf_frequency_hz == pytest.approx(915e6 + 137.0)

    def test_eirp_includes_antenna_gain(self, rng):
        chain = TransmitChain(915e6, rng, tx_power_dbm=20.0)
        # 20 dBm + 7 dBi = 27 dBm EIRP (0.5 W), minus tiny compression.
        assert chain.eirp_dbm() == pytest.approx(27.0, abs=0.3)

    def test_eirp_compresses_at_high_power(self, rng):
        low = TransmitChain(915e6, rng, tx_power_dbm=20.0)
        high = TransmitChain(915e6, rng, tx_power_dbm=36.0)
        low_backoff = low.eirp_dbm() - (20.0 + 7.0)
        high_backoff = high.eirp_dbm() - (36.0 + 7.0)
        assert high_backoff < low_backoff - 1.0

    def test_transmit_applies_offset_rotation(self, rng):
        chain = TransmitChain(915e6, rng, offset_hz=100.0, sample_rate_hz=10e3,
                              tx_power_dbm=0.0)
        samples = chain.transmit(np.ones(100))
        angles = np.unwrap(np.angle(samples))
        slope = (angles[-1] - angles[0]) / (99 / 10e3)
        assert slope == pytest.approx(2 * np.pi * 100.0, rel=1e-3)

    def test_transmit_respects_envelope_zeros(self, rng):
        chain = TransmitChain(915e6, rng)
        envelope = np.array([1.0, 0.0, 1.0, 0.0])
        samples = chain.transmit(envelope)
        assert samples[1] == 0 and samples[3] == 0
        assert abs(samples[0]) > 0

    def test_envelope_validation(self, rng):
        chain = TransmitChain(915e6, rng)
        with pytest.raises(ValueError):
            chain.transmit(np.array([]))
        with pytest.raises(ValueError):
            chain.transmit(np.array([-0.5, 1.0]))

    def test_invalid_carrier(self, rng):
        with pytest.raises(ConfigurationError):
            TransmitChain(0.0, rng)
