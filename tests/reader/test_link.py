"""Tests for repro.reader.link (the end-to-end system)."""

import math
from functools import reduce

import numpy as np
import pytest

from repro.core import waveform
from repro.core.plan import paper_plan, single_antenna_plan
from repro.em.media import AIR, WATER
from repro.em.phantoms import WaterTankPhantom
from repro.errors import ConfigurationError
from repro.faults.inject import FaultInjector
from repro.faults.plan import reference_holdover
from repro.gen2.pie import PIEEncoder, PIETiming
from repro.reader.link import IvnLink, branch_eirp_w, cib_peak
from repro.sensors.tags import miniature_tag_spec, standard_tag_spec


@pytest.fixture
def air_tank():
    return WaterTankPhantom(medium=AIR, standoff_m=3.0)


class TestBranchEirp:
    def test_nominal(self):
        # 30 dBm through the PA model plus 7 dBi: ~36.3 dBm = ~4.3 W.
        assert branch_eirp_w(30.0) == pytest.approx(4.28, rel=0.05)

    def test_low_power_linear(self):
        assert branch_eirp_w(10.0) == pytest.approx(0.05, rel=0.05)


class TestLinkTrial:
    def test_close_range_succeeds(self, air_tank, rng):
        link = IvnLink(paper_plan(), standard_tag_spec())
        channel = air_tank.channel(10, 0.0, 915e6, rng=rng)
        result = link.run_trial(channel, AIR, rng)
        assert result.powered
        assert result.query_decoded
        assert result.reply_sent
        assert result.success
        assert result.correlation > 0.8
        assert result.capture_waveform is not None

    def test_flatness_respected_at_peak(self, air_tank, rng):
        link = IvnLink(paper_plan(), standard_tag_spec())
        channel = air_tank.channel(10, 0.0, 915e6, rng=rng)
        result = link.run_trial(channel, AIR, rng)
        assert result.query_fluctuation <= standard_tag_spec().max_query_fluctuation

    def test_far_range_fails_to_power(self, rng):
        far_tank = WaterTankPhantom(medium=AIR, standoff_m=300.0)
        link = IvnLink(single_antenna_plan(), standard_tag_spec())
        channel = far_tank.channel(1, 0.0, 915e6, rng=rng)
        result = link.run_trial(channel, AIR, rng)
        assert not result.powered
        assert not result.success
        assert "below minimum" in result.notes

    def test_miniature_needs_more_power(self, rng):
        tank = WaterTankPhantom(medium=AIR, standoff_m=2.0)
        standard_link = IvnLink(single_antenna_plan(), standard_tag_spec())
        miniature_link = IvnLink(single_antenna_plan(), miniature_tag_spec())
        channel = tank.channel(1, 0.0, 915e6, rng=rng)
        standard = standard_link.run_trial(channel, AIR, rng)
        miniature = miniature_link.run_trial(channel, AIR, rng)
        assert standard.powered
        assert not miniature.powered

    def test_eirp_override(self, rng):
        link = IvnLink(
            paper_plan(), standard_tag_spec(), eirp_per_branch_w=12.0
        )
        assert link.eirp_per_branch_w() == 12.0

    def test_water_depth_link(self, rng):
        tank = WaterTankPhantom(standoff_m=0.9)
        link = IvnLink(paper_plan(), standard_tag_spec(), eirp_per_branch_w=6.0)
        channel = tank.channel(10, 0.05, 915e6, rng=rng)
        result = link.run_trial(channel, WATER, rng)
        assert result.powered
        assert result.success

    def test_jamming_estimate_reasonable(self):
        link = IvnLink(paper_plan(), standard_tag_spec())
        estimate = link.jamming_estimate()
        assert estimate.peak_power_w > estimate.incident_power_w
        assert estimate.residual_power_w < 1e-3 * estimate.peak_power_w

    def test_channel_antenna_mismatch_raises(self, air_tank, rng):
        link = IvnLink(paper_plan(), standard_tag_spec())
        channel = air_tank.channel(4, 0.0, 915e6, rng=rng)
        with pytest.raises(ConfigurationError):
            link.run_trial(channel, AIR, rng)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            IvnLink(paper_plan(), standard_tag_spec(), n_averaging_periods=0)
        with pytest.raises(ConfigurationError):
            IvnLink(paper_plan(), standard_tag_spec(), reader_distance_m=0)
        with pytest.raises(ConfigurationError):
            IvnLink(paper_plan(), standard_tag_spec(), eirp_per_branch_w=-1.0)

    @pytest.mark.parametrize("eirp", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("error", [ValueError, ConfigurationError])
    def test_rejects_bad_eirp_override(self, eirp, error):
        with pytest.raises(error, match="positive and finite"):
            IvnLink(paper_plan(), standard_tag_spec(), eirp_per_branch_w=eirp)


def integer_plans(rng, count):
    """Random integer-offset plans whose envelope does not repeat in 1 s.

    Offsets sharing a common step make the envelope periodic, so its peak
    recurs on the grid and either search may pick an equally high repeat.
    """
    plans = []
    while len(plans) < count:
        n = int(rng.integers(2, 16))
        offsets = np.sort(rng.choice(int(rng.choice([150, 400, 1000])), n, False))
        if reduce(math.gcd, (int(d) for d in offsets - offsets[0])) == 1:
            plans.append(offsets.astype(float))
    return plans


class TestCibPeak:
    def test_matches_direct_peak_search(self):
        rng = np.random.default_rng(13)
        paper = paper_plan().offsets_array()
        plans = [paper, paper[:8]] * 50 + integer_plans(rng, 300)
        for offsets in plans:
            betas = rng.uniform(0.0, 2.0 * np.pi, offsets.size)
            amplitudes = rng.uniform(0.1, 3.0, offsets.size)
            value, t_peak = cib_peak(offsets, betas, amplitudes)
            ref_value, ref_t = waveform.peak_envelope(
                offsets, betas, duration_s=1.0, amplitudes=amplitudes
            )
            assert t_peak == ref_t
            assert value == pytest.approx(ref_value, rel=1e-12)


class TestTrialPeakTier:
    @pytest.fixture
    def direct_calls(self, monkeypatch):
        calls = []
        direct = waveform.peak_envelope

        def spy(*args, **kwargs):
            calls.append(direct(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(waveform, "peak_envelope", spy)
        return calls

    def test_healthy_trial_uses_fft(self, air_tank, direct_calls):
        rng = np.random.default_rng(5)
        link = IvnLink(paper_plan(), standard_tag_spec())
        result = link.run_trial(air_tank.channel(10, 0.0, 915e6, rng=rng), AIR, rng)
        assert result.success
        assert direct_calls == []

    def test_fractional_fault_offsets_take_direct_path(self, air_tank, direct_calls):
        rng = np.random.default_rng(5)
        link = IvnLink(paper_plan(), standard_tag_spec())
        channel = air_tank.channel(10, 0.0, 915e6, rng=rng)
        faults = FaultInjector(reference_holdover(1.0), 3)
        result = link.run_trial(channel, AIR, rng, faults=faults, trial_index=4)
        assert len(direct_calls) == 1
        assert result.peak_field_v_per_m == direct_calls[0][0]


class TestLinkConstants:
    def test_constants_match_fresh_computation(self):
        link = IvnLink(paper_plan(), standard_tag_spec(), reader_distance_m=1.3)
        fresh = PIEEncoder(
            timing=PIETiming(), sample_rate_hz=link.reader.sample_rate_hz
        ).encode(link.query.to_bits())
        np.testing.assert_array_equal(link._command_envelope, fresh)
        assert not link._command_envelope.flags.writeable
        assert link._jamming == link.jamming_estimate()
        assert link._tag_aperture_m2 == (
            link.tag_spec.antenna.effective_aperture_m2(
                link.reader.carrier_frequency_hz
            )
        )
