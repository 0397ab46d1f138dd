"""Tests for the radio array of the SDR oracle."""

import numpy as np
import pytest

from repro.core.plan import paper_plan
from repro.errors import ConfigurationError
from tests.reference.sdr import RadioArray, SyncDomain


class TestRadioArray:
    def test_one_radio_per_offset(self, rng):
        array = RadioArray(paper_plan(), rng)
        assert array.n_radios == 10
        offsets = [chain.offset_hz for chain in array.chains]
        assert offsets == list(paper_plan().offsets_hz)

    def test_sync_domain_size_must_match(self, rng):
        with pytest.raises(ConfigurationError):
            RadioArray(paper_plan(), rng, sync=SyncDomain(3))

    def test_synchronized_transmit_shape(self, rng):
        array = RadioArray(paper_plan().subset(4), rng)
        streams = array.synchronized_transmit(np.ones(256))
        assert streams.shape == (4, 256)

    def test_different_radios_different_phases(self, rng):
        array = RadioArray(paper_plan().subset(4), rng)
        streams = array.synchronized_transmit(
            np.ones(16), apply_trigger_jitter=False
        )
        initial = np.angle(streams[:, 0])
        assert len(set(np.round(initial, 6))) > 1

    def test_relock_changes_phases(self, rng):
        array = RadioArray(paper_plan().subset(3), rng)
        before = np.angle(
            array.synchronized_transmit(np.ones(4), apply_trigger_jitter=False)[:, 0]
        )
        array.relock_all()
        after = np.angle(
            array.synchronized_transmit(np.ones(4), apply_trigger_jitter=False)[:, 0]
        )
        assert not np.allclose(before, after)

    def test_eirp_per_branch(self, rng):
        array = RadioArray(paper_plan().subset(2), rng, tx_power_dbm=20.0)
        eirp = array.eirp_per_branch_watts()
        assert eirp.shape == (2,)
        # 27 dBm EIRP ~ 0.5 W.
        assert np.all(np.abs(eirp - 0.5) < 0.05)
