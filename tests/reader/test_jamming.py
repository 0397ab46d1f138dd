"""Tests for repro.reader.jamming (Section 4)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.reader.jamming import JammingEstimate, jamming_at_reader
from repro.rf.receiver import SawFilter


def make_estimate(saw=None):
    return jamming_at_reader(
        eirp_per_branch_w=np.full(8, 4.0),
        beamformer_frequency_hz=915e6,
        distances_m=np.full(8, 0.7),
        reader_rx_gain_linear=5.0,
        saw=saw,
    )


class TestJammingAtReader:
    def test_peak_exceeds_incoherent_sum(self):
        estimate = make_estimate()
        assert estimate.peak_power_w > estimate.incident_power_w
        # Equal branches: coherent peak is N x the incoherent sum.
        assert estimate.peak_power_w == pytest.approx(
            8 * estimate.incident_power_w, rel=1e-6
        )

    def test_saw_rejection_applied(self):
        saw = SawFilter(center_hz=880e6, rejection_db=50.0, insertion_loss_db=2.0)
        filtered = make_estimate(saw=saw)
        unfiltered = make_estimate(saw=None)
        assert filtered.peak_power_w == pytest.approx(unfiltered.peak_power_w)
        ratio = filtered.residual_power_w / unfiltered.residual_power_w
        assert ratio == pytest.approx(10 ** (-52.0 / 10.0), rel=1e-6)

    def test_residual_amplitude(self):
        estimate = JammingEstimate(
            incident_power_w=1.0, peak_power_w=2.0, residual_power_w=0.5
        )
        assert estimate.residual_amplitude_v(50.0) == pytest.approx(
            np.sqrt(2 * 0.5 * 50)
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            jamming_at_reader(
                eirp_per_branch_w=np.ones(3),
                beamformer_frequency_hz=915e6,
                distances_m=np.ones(4),
                reader_rx_gain_linear=1.0,
            )

    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            jamming_at_reader(
                eirp_per_branch_w=np.array([-1.0]),
                beamformer_frequency_hz=915e6,
                distances_m=np.array([1.0]),
                reader_rx_gain_linear=1.0,
            )
