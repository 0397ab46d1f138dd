"""Empty-plan parity: fault hooks installed but inactive change nothing.

The contract every host module carries: passing ``faults=None``, an
injector over :data:`~repro.faults.plan.EMPTY_PLAN`, or omitting the
argument entirely must be bit-identical. This is what lets the fault
subsystem thread through the hot paths without re-validating every
healthy result in the repo.
"""

import numpy as np
import pytest

from repro.constants import TANK_STANDOFF_POWER_GAIN_M
from repro.core.plan import paper_plan
from repro.em.media import AIR, WATER
from repro.em.phantoms import WaterTankPhantom
from repro.experiments.common import (
    TankChannelFactory,
    measure_gain_trials,
    power_up_probability,
)
from repro.faults.inject import FaultInjector
from repro.faults.plan import EMPTY_PLAN, reference_holdover
from repro.gen2 import fm0
from repro.gen2.decoder import decode_fm0_response
from repro.reader.link import IvnLink
from repro.runtime.runner import TrialRunner
from repro.sensors.tags import standard_tag_spec

N_TRIALS = 6
PLAN = paper_plan().subset(4)


@pytest.fixture
def factory():
    tank = WaterTankPhantom(standoff_m=TANK_STANDOFF_POWER_GAIN_M)
    return TankChannelFactory(tank, 4, 0.08, PLAN.center_frequency_hz)


def gains(factory, fault_plan=..., **kwargs):
    extra = {} if fault_plan is ... else {"fault_plan": fault_plan}
    samples = measure_gain_trials(
        factory, PLAN, n_trials=N_TRIALS, seed=21, include_baseline=True,
        **extra, **kwargs,
    )
    return [(s.cib_gain, s.baseline_gain) for s in samples]


class TestMeasureGainParity:
    def test_none_equals_omitted_equals_empty(self, factory):
        omitted = gains(factory)
        none = gains(factory, fault_plan=None)
        empty = gains(factory, fault_plan=EMPTY_PLAN)
        assert omitted == none == empty

    def test_chunking_invariance_with_active_plan(self, factory):
        plan = reference_holdover(1.0)
        whole = gains(factory, fault_plan=plan)
        split = gains(factory, fault_plan=plan, runner=TrialRunner(chunk_size=2))
        assert whole == split

    def test_active_plan_changes_results(self, factory):
        healthy = gains(factory)
        faulted = gains(factory, fault_plan=reference_holdover(1.0))
        assert healthy != faulted


class TestPowerUpParity:
    def test_none_equals_empty(self, factory):
        kwargs = dict(
            plan=PLAN,
            channel_factory=factory,
            medium_at_tag=WATER,
            eirp_per_branch_w=4.0,
            tag_spec=standard_tag_spec(),
            n_trials=N_TRIALS,
            seed=33,
        )
        assert power_up_probability(
            fault_plan=None, **kwargs
        ) == power_up_probability(fault_plan=EMPTY_PLAN, **kwargs)


class TestDecoderParity:
    def test_inactive_injector_is_identity(self):
        bits = (1, 0, 1, 1, 0, 0, 1, 0)
        chips = fm0.encode_chips(bits, include_preamble=True, dummy_bit=True)
        wave = fm0.chips_to_waveform(chips, 4)
        plain = decode_fm0_response(wave, n_bits=len(bits), samples_per_chip=4)
        hooked = decode_fm0_response(
            wave,
            n_bits=len(bits),
            samples_per_chip=4,
            faults=FaultInjector(EMPTY_PLAN, 33),
            trial_index=5,
        )
        assert plain == hooked


class TestLinkParity:
    def test_run_trial_identical_with_inactive_injector(self):
        tank = WaterTankPhantom(medium=AIR, standoff_m=3.0)
        link = IvnLink(paper_plan(), standard_tag_spec())
        channel = tank.channel(10, 0.0, 915e6, rng=np.random.default_rng(3))
        plain = link.run_trial(channel, AIR, np.random.default_rng(11))
        hooked = link.run_trial(
            channel,
            AIR,
            np.random.default_rng(11),
            faults=FaultInjector(EMPTY_PLAN, 11),
            trial_index=2,
        )
        for name in vars(plain):
            a, b = getattr(plain, name), getattr(hooked, name)
            if isinstance(a, np.ndarray):
                np.testing.assert_array_equal(a, b, err_msg=name)
            else:
                assert a == b, name
