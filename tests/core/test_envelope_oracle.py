"""The CIB envelope model against the sample-level SDR oracle.

Every Monte-Carlo path evaluates ``|sum_i a_i exp(j(2 pi df_i t + beta_i))|``
through :mod:`repro.core.waveform` or
:func:`repro.core.optimizer.sparse_envelope`. Here the same signal is built
the way the prototype radiates it (Section 5): ten radios, each PLL with an
arbitrary initial phase, each offset soft-coded into the baseband samples,
each branch through its PA, summed at the sensor through one blind-channel
realization. With the PA in its linear region and no trigger jitter, the
model must reproduce that sum with ``beta_i = theta_i + angle(g_i)`` and
``a_i = |g_i|`` times the branch's output amplitude.
"""

import numpy as np
import pytest

from repro.core import waveform
from repro.core.optimizer import sparse_envelope, validate_offset_bins
from repro.core.plan import paper_plan
from repro.em import WaterTankPhantom
from tests.reference.sdr import RadioArray

TX_POWER_DBM = -30.0
"""10 mV at each PA output: Rapp compression is below 1e-12 there."""

DEPTH_M = 0.10


@pytest.fixture(scope="module")
def transmission():
    """One CIB period sampled on the model's own time grid."""
    plan = paper_plan()
    offsets = plan.offsets_array()
    t = waveform.time_grid(offsets)
    rng = np.random.default_rng(2018)
    array = RadioArray(
        plan, rng, tx_power_dbm=TX_POWER_DBM, sample_rate_hz=float(t.size)
    )
    streams = array.synchronized_transmit(
        np.ones(t.size), apply_trigger_jitter=False
    )
    channel = WaterTankPhantom().channel(
        n_antennas=plan.n_antennas,
        depth_m=DEPTH_M,
        frequency_hz=plan.center_frequency_hz,
    )
    gains = channel.realize(rng).gains
    amplitude = array.chains[0].output_amplitude_v()
    return {
        "offsets": offsets,
        "t": t,
        "streams": streams,
        "received": np.abs(gains @ streams),
        "betas": array.pll_phases() + np.angle(gains),
        "amplitudes": np.abs(gains) * amplitude,
        "amplitude": amplitude,
    }


def test_pa_is_linear(transmission):
    np.testing.assert_allclose(
        np.abs(transmission["streams"]), transmission["amplitude"], rtol=1e-12
    )


def test_envelope_matches_every_sample(transmission):
    model = waveform.envelope(
        transmission["offsets"],
        transmission["betas"],
        transmission["t"],
        transmission["amplitudes"],
    )
    np.testing.assert_allclose(transmission["received"], model, rtol=1e-9)


def test_peak_matches_sparse_envelope(transmission):
    t = transmission["t"]
    bins = validate_offset_bins(transmission["offsets"], t.size)
    rows = sparse_envelope(
        bins,
        transmission["betas"][None, :],
        transmission["amplitudes"],
        t.size,
    )
    assert np.max(transmission["received"]) == pytest.approx(
        float(rows.max(axis=1)[0]), rel=1e-9
    )
