"""Regression: the batched/parallel runtime reproduces the scalar loops.

The runtime's core contract: at fixed seeds, the batched direct tier and
the process-pool fan-out return *bit-identical* results to the legacy
one-trial-per-iteration reference implementations, for every worker count
and chunking; the FFT tier agrees to floating-point noise.

The paper plan's offsets are integer bins, so the drivers evaluate it on
the FFT tier; the ``direct_tier`` fixture makes ``fft_compatible`` answer
no, which sends every chunk of a serial (in-process) run to the direct
tier.
"""

import numpy as np
import pytest

from repro.constants import TANK_STANDOFF_POWER_GAIN_M
from repro.core.baselines import (
    BeamsteeringTransmitter,
    BlindSameFrequencyTransmitter,
    CIBTransmitter,
    OracleMRTTransmitter,
)
from repro.core.plan import paper_plan
from repro.em.media import WATER
from repro.em.phantoms import WaterTankPhantom
from repro.experiments.common import (
    TankChannelFactory,
    measure_gain_trials,
    measure_strategy_gains,
    power_up_probability,
)
from repro.experiments import ber
from repro.obs.context import obs_context
from repro.runtime import engine as engine_mod
from repro.runtime.runner import TrialRunner
from repro.sensors.tags import standard_tag_spec
from tests.reference.measurement import (
    measure_gain_trials_scalar,
    measure_strategy_gains_scalar,
    power_up_probability_scalar,
)

N_TRIALS = 12
SEED = 2026


@pytest.fixture(scope="module")
def plan():
    return paper_plan()


@pytest.fixture(scope="module")
def factory(plan):
    tank = WaterTankPhantom(standoff_m=TANK_STANDOFF_POWER_GAIN_M)
    return TankChannelFactory(tank, plan.n_antennas, 0.10, plan.center_frequency_hz)


@pytest.fixture
def direct_tier(monkeypatch):
    monkeypatch.setattr(engine_mod, "fft_compatible", lambda *args: False)


class TestGainTrials:
    def test_direct_engine_bitwise_matches_scalar_loop(
        self, plan, factory, direct_tier
    ):
        legacy = measure_gain_trials_scalar(factory, plan, N_TRIALS, SEED)
        assert measure_gain_trials(factory, plan, N_TRIALS, SEED) == legacy

    def test_fft_engine_close_to_scalar_loop(self, plan, factory):
        legacy = measure_gain_trials_scalar(factory, plan, N_TRIALS, SEED)
        fft = measure_gain_trials(factory, plan, N_TRIALS, SEED)
        np.testing.assert_allclose(
            [s.cib_gain for s in fft],
            [s.cib_gain for s in legacy],
            rtol=1e-9,
        )
        # Baseline peaks never take the FFT path; they stay bitwise equal.
        assert [s.baseline_gain for s in fft] == [
            s.baseline_gain for s in legacy
        ]

    @pytest.mark.parametrize("workers,chunk_size", [(2, None), (4, 5), (3, 1)])
    def test_worker_count_and_chunking_do_not_change_results(
        self, plan, factory, workers, chunk_size
    ):
        serial = measure_gain_trials(factory, plan, N_TRIALS, SEED)
        with TrialRunner(workers=workers, chunk_size=chunk_size) as runner:
            pooled = measure_gain_trials(
                factory, plan, N_TRIALS, SEED, runner=runner
            )
        assert pooled == serial

    def test_no_baseline_path_matches(self, plan, factory, direct_tier):
        legacy = measure_gain_trials_scalar(
            factory, plan, N_TRIALS, SEED, include_baseline=False
        )
        batched = measure_gain_trials(
            factory, plan, N_TRIALS, SEED, include_baseline=False
        )
        assert batched == legacy

    def test_each_chunk_decides_its_tier_once(
        self, plan, factory, monkeypatch
    ):
        calls = []
        original = engine_mod.fft_compatible

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(engine_mod, "fft_compatible", counting)
        with obs_context() as obs:
            measure_gain_trials(
                factory, plan, N_TRIALS, SEED, runner=TrialRunner(chunk_size=4)
            )
        assert len(calls) == N_TRIALS // 4
        assert obs.metrics.counters()["engine.tier.fft"] == N_TRIALS // 4


class TestPowerUp:
    def _args(self, plan):
        # Deep enough that successes are mixed, so equality discriminates.
        tank = WaterTankPhantom(standoff_m=0.9)
        factory = TankChannelFactory(
            tank, plan.n_antennas, 0.16, plan.center_frequency_hz
        )
        return (plan, factory, WATER, 6.0, standard_tag_spec(), 15, SEED)

    def test_engines_match_scalar_loop(self, plan, monkeypatch):
        args = self._args(plan)
        legacy = power_up_probability_scalar(*args)
        assert power_up_probability(*args) == legacy
        monkeypatch.setattr(engine_mod, "fft_compatible", lambda *a: False)
        assert power_up_probability(*args) == legacy

    def test_workers_do_not_change_results(self, plan):
        args = self._args(plan)
        serial = power_up_probability(*args)
        for workers, chunk_size in ((3, None), (2, 4)):
            with TrialRunner(workers=workers, chunk_size=chunk_size) as runner:
                assert power_up_probability(*args, runner=runner) == serial


class _StrategyFactory:
    """Picklable strategy factory covering all dispatch branches."""

    def __init__(self, kind, plan):
        self.kind = kind
        self.plan = plan

    def __call__(self, channel):
        if self.kind == "cib":
            return CIBTransmitter(self.plan)
        if self.kind == "blind":
            return BlindSameFrequencyTransmitter(self.plan.n_antennas)
        if self.kind == "steer":
            return BeamsteeringTransmitter(channel.geometric_phases())
        return OracleMRTTransmitter(self.plan.n_antennas)


class TestStrategyGains:
    @pytest.mark.parametrize("kind", ["cib", "blind", "steer", "mrt"])
    def test_direct_engine_matches_scalar_loop(
        self, plan, factory, kind, direct_tier
    ):
        strategy_factory = _StrategyFactory(kind, plan)
        legacy = measure_strategy_gains_scalar(
            factory, strategy_factory, N_TRIALS, SEED
        )
        batched = measure_strategy_gains(
            factory, strategy_factory, N_TRIALS, SEED
        )
        assert batched == legacy

    def test_pooled_matches_serial(self, plan, factory):
        strategy_factory = _StrategyFactory("cib", plan)
        serial = measure_strategy_gains(
            factory, strategy_factory, N_TRIALS, SEED
        )
        with TrialRunner(workers=2) as runner:
            pooled = measure_strategy_gains(
                factory, strategy_factory, N_TRIALS, SEED, runner=runner
            )
        assert pooled == serial

    def test_lambda_factory_warns_and_matches(self, plan, factory):
        serial = measure_strategy_gains(
            factory, _StrategyFactory("cib", plan), N_TRIALS, SEED
        )
        with pytest.warns(RuntimeWarning, match="not picklable"):
            fallback = measure_strategy_gains(
                factory,
                lambda channel: CIBTransmitter(plan),
                N_TRIALS,
                SEED,
                runner=TrialRunner(workers=2),
            )
        assert fallback == serial


class TestBer:
    def test_workers_do_not_change_curves(self):
        config = ber.BerConfig(
            snr_db_points=(-6.0, 0.0), n_words=10, miller_orders=(2,)
        )
        serial = ber.run(config)
        pooled = ber.run(
            ber.BerConfig(
                snr_db_points=(-6.0, 0.0),
                n_words=10,
                miller_orders=(2,),
                workers=3,
            )
        )
        assert pooled.curves == serial.curves
