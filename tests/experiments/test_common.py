"""Tests for repro.experiments.common (the shared measurement drivers)."""

import numpy as np
import pytest

from repro.core.baselines import CIBTransmitter, OracleMRTTransmitter
from repro.core.plan import paper_plan
from repro.em.media import AIR, WATER
from repro.em.phantoms import WaterTankPhantom
from repro.experiments.common import (
    GainSample,
    measure_gain_trials,
    measure_strategy_gains,
    power_up_probability,
)
from repro.sensors.tags import standard_tag_spec
from tests.reference.measurement import peak_input_voltage_v


@pytest.fixture
def tank_factory():
    tank = WaterTankPhantom()

    def factory(rng: np.random.Generator):
        return tank.channel(10, 0.10, 915e6, rng=rng)

    return factory


class TestGainSample:
    def test_ratio(self):
        sample = GainSample(cib_gain=80.0, baseline_gain=10.0)
        assert sample.ratio == pytest.approx(8.0)


class TestMeasureGainTrials:
    def test_reproducible(self, tank_factory):
        plan = paper_plan()
        first = measure_gain_trials(tank_factory, plan, 5, seed=1)
        second = measure_gain_trials(tank_factory, plan, 5, seed=1)
        assert [s.cib_gain for s in first] == [s.cib_gain for s in second]

    def test_gains_positive_and_bounded(self, tank_factory):
        plan = paper_plan()
        samples = measure_gain_trials(tank_factory, plan, 10, seed=2)
        for sample in samples:
            assert 0 < sample.cib_gain <= 110.0
            assert sample.baseline_gain > 0

    def test_baseline_skipped_when_disabled(self, tank_factory):
        plan = paper_plan()
        samples = measure_gain_trials(
            tank_factory, plan, 3, seed=3, include_baseline=False
        )
        for sample in samples:
            # Disabled baseline records the reference itself: gain 1.
            assert sample.baseline_gain == pytest.approx(1.0)

    def test_invalid_trials(self, tank_factory):
        with pytest.raises(ValueError):
            measure_gain_trials(tank_factory, paper_plan(), 0, seed=0)


class TestMeasureStrategyGains:
    def test_oracle_dominates_cib(self, tank_factory):
        oracle = measure_strategy_gains(
            tank_factory, lambda ch: OracleMRTTransmitter(10), 8, seed=4
        )
        cib = measure_strategy_gains(
            tank_factory, lambda ch: CIBTransmitter(paper_plan()), 8, seed=4
        )
        assert np.median(oracle) >= np.median(cib)


class TestPowerUpHelpers:
    def test_peak_voltage_scales_with_eirp(self, rng):
        tank = WaterTankPhantom(medium=AIR, standoff_m=3.0)
        channel = tank.channel(4, 0.0, 915e6, rng=rng)
        plan = paper_plan().subset(4)
        spec = standard_tag_spec()
        low = peak_input_voltage_v(
            plan, channel, AIR, 1.0, spec, np.random.default_rng(5)
        )
        high = peak_input_voltage_v(
            plan, channel, AIR, 4.0, spec, np.random.default_rng(5)
        )
        assert high == pytest.approx(2.0 * low, rel=1e-6)

    def test_probability_monotone_in_power(self):
        tank = WaterTankPhantom(medium=AIR, standoff_m=8.0)

        def factory(rng):
            return tank.channel(2, 0.0, 915e6, rng=rng)

        plan = paper_plan().subset(2)
        spec = standard_tag_spec()
        weak = power_up_probability(plan, factory, AIR, 0.5, spec, 10, seed=6)
        strong = power_up_probability(plan, factory, AIR, 50.0, spec, 10, seed=6)
        assert strong >= weak
        assert strong == 1.0

    def test_probability_zero_far_away(self):
        tank = WaterTankPhantom(medium=AIR, standoff_m=500.0)

        def factory(rng):
            return tank.channel(1, 0.0, 915e6, rng=rng)

        probability = power_up_probability(
            paper_plan().subset(1), factory, AIR, 6.0,
            standard_tag_spec(), 5, seed=7,
        )
        assert probability == 0.0

    def test_invalid_eirp(self, rng):
        tank = WaterTankPhantom()
        channel = tank.channel(1, 0.0, 915e6, rng=rng)
        with pytest.raises(ValueError):
            peak_input_voltage_v(
                paper_plan().subset(1), channel, WATER, 0.0,
                standard_tag_spec(), rng,
            )
