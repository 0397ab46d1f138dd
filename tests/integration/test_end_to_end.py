"""Integration tests: the whole IVN system working together."""

import numpy as np
import pytest

from repro.core import paper_plan
from repro.em import AIR, SwinePhantom, WaterTankPhantom, GASTRIC_CONTENT, WATER
from repro.gen2 import Gen2Tag, inventory_until_quiet
from repro.gen2.pie import PIEEncoder
from repro.reader import IvnLink, OutOfBandReader
from repro.rf import SawFilter
from repro.sensors import miniature_tag_spec, standard_tag_spec
from tests.reference.beamformer import CIBBeamformer


class TestFullLink:
    def test_air_link_end_to_end(self, rng):
        """10-antenna CIB powers, queries, and reads a standard tag at 5 m."""
        tank = WaterTankPhantom(medium=AIR, standoff_m=5.0)
        link = IvnLink(paper_plan(), standard_tag_spec())
        successes = 0
        for _ in range(5):
            channel = tank.channel(10, 0.0, 915e6, rng=rng)
            result = link.run_trial(channel, AIR, rng)
            successes += result.success
        assert successes >= 4

    def test_deep_water_link(self, rng):
        """8-antenna CIB reaches ~10 cm into water; 1 antenna cannot."""
        tank = WaterTankPhantom(standoff_m=0.9)
        plan8 = paper_plan().subset(8)
        link8 = IvnLink(plan8, standard_tag_spec(), eirp_per_branch_w=6.0)
        channel8 = tank.channel(8, 0.10, 915e6, rng=rng)
        assert link8.run_trial(channel8, WATER, rng).powered

        plan1 = paper_plan().subset(1)
        link1 = IvnLink(plan1, standard_tag_spec(), eirp_per_branch_w=6.0)
        channel1 = tank.channel(1, 0.10, 915e6, rng=rng)
        assert not link1.run_trial(channel1, WATER, rng).powered

    def test_swine_gastric_roundtrip(self):
        """At least one of several gastric placements communicates."""
        rng = np.random.default_rng(60)
        phantom = SwinePhantom()
        link = IvnLink(
            paper_plan().subset(8), standard_tag_spec(), eirp_per_branch_w=6.0
        )
        results = []
        for _ in range(8):
            channel = phantom.channel("gastric", 8, 915e6, rng)
            results.append(link.run_trial(channel, GASTRIC_CONTENT, rng))
        assert any(r.success for r in results)
        for result in results:
            if result.success:
                assert result.correlation > 0.8
                assert len(result.decode.bits) == 16

    def test_out_of_band_beats_in_band(self, rng):
        """The Section 4 design claim, end to end."""
        tank = WaterTankPhantom(medium=AIR, standoff_m=4.0)
        out_of_band = IvnLink(paper_plan(), standard_tag_spec())
        in_band_reader = OutOfBandReader(
            carrier_frequency_hz=915e6,
            saw=SawFilter(center_hz=915e6, bandwidth_hz=80e6, rejection_db=0.0),
        )
        in_band = IvnLink(paper_plan(), standard_tag_spec(), reader=in_band_reader)
        oob_wins = ib_wins = 0
        for _ in range(4):
            channel = tank.channel(10, 0.0, 915e6, rng=rng)
            oob_wins += out_of_band.run_trial(channel, AIR, rng).success
            ib_wins += in_band.run_trial(channel, AIR, rng).success
        assert oob_wins >= 3
        assert ib_wins == 0


class TestBeamformerWithProtocol:
    def test_modulated_cib_carries_a_query(self, rng):
        """A PIE query modulated on all carriers keeps a common envelope."""
        encoder = PIEEncoder(sample_rate_hz=1e6)
        from repro.gen2.commands import Query

        command = encoder.encode(Query(q=0).to_bits())
        beamformer = CIBBeamformer(paper_plan(), sample_rate_hz=1e6)
        frame = beamformer.modulated_streams(command, rng)
        for antenna in range(frame.n_antennas):
            assert np.allclose(np.abs(frame.streams[antenna]), command)

    def test_multi_tag_inventory_over_powered_population(self, rng):
        """Once CIB powers several tags, standard Gen2 arbitration sorts
        them out (Sec. 3.7 multi-sensor scaling)."""
        tags = []
        for index in range(6):
            epc = tuple(int(b) for b in rng.integers(0, 2, 96))
            tag = Gen2Tag(epc, np.random.default_rng(500 + index))
            tag.power_up()
            tags.append(tag)
        epcs, _ = inventory_until_quiet(tags, rng, initial_q=3)
        assert len(epcs) == 6


class TestMiniatureVsStandard:
    def test_threshold_ordering(self, rng):
        """At any distance where the miniature tag powers, the standard
        one does too (its aperture strictly dominates in air)."""
        link_std = IvnLink(paper_plan(), standard_tag_spec())
        link_min = IvnLink(paper_plan(), miniature_tag_spec())
        for standoff in (1.0, 2.0, 4.0):
            tank = WaterTankPhantom(medium=AIR, standoff_m=standoff)
            channel = tank.channel(10, 0.0, 915e6, rng=rng)
            mini = link_min.run_trial(channel, AIR, rng)
            standard = link_std.run_trial(channel, AIR, rng)
            if mini.powered:
                assert standard.powered
