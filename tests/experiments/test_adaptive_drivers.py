"""Parity pins for adaptive allocation threaded through the drivers.

The ISSUE's determinism contract: adaptive mode with a fixed budget (no
CI target) is bitwise identical to the non-adaptive path for any worker
count, and an early-stopped run is the exact prefix of the fixed run.
"""

from dataclasses import replace

import pytest

from repro.constants import TANK_STANDOFF_POWER_GAIN_M
from repro.core.plan import paper_plan
from repro.em.media import WATER
from repro.em.phantoms import WaterTankPhantom
from repro.experiments import ber, wakeup_latency
from repro.experiments.cli import main
from repro.experiments.common import (
    TankChannelFactory,
    measure_gain_trials,
    power_up_trials,
)
from repro.runtime.adaptive import STOP_CI_MET, AdaptiveConfig
from repro.runtime.runner import TrialRunner
from repro.sensors.tags import standard_tag_spec

N_TRIALS = 12
SEED = 2026

NO_TARGET = AdaptiveConfig(min_trials=5, batch_trials=4)
"""Runs every point to its full budget -- must match the fixed path."""


@pytest.fixture(scope="module")
def plan():
    return paper_plan()


@pytest.fixture(scope="module")
def factory(plan):
    tank = WaterTankPhantom(standoff_m=TANK_STANDOFF_POWER_GAIN_M)
    return TankChannelFactory(
        tank, plan.n_antennas, 0.10, plan.center_frequency_hz
    )


class TestGainParity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_budget_adaptive_is_bitwise_fixed(
        self, plan, factory, workers
    ):
        fixed = measure_gain_trials(factory, plan, N_TRIALS, SEED)
        with TrialRunner(workers=workers) as runner:
            streamed = measure_gain_trials(
                factory,
                plan,
                N_TRIALS,
                SEED,
                runner=runner,
                adaptive=NO_TARGET,
            )
        assert streamed == fixed

    def test_disabled_config_is_the_fixed_path(self, plan, factory):
        fixed = measure_gain_trials(factory, plan, N_TRIALS, SEED)
        off = measure_gain_trials(
            factory,
            plan,
            N_TRIALS,
            SEED,
            adaptive=AdaptiveConfig(enabled=False, ci_target=1e-12),
        )
        assert off == fixed

    @pytest.mark.parametrize("workers", [1, 3])
    def test_early_stop_is_an_exact_prefix(self, plan, factory, workers):
        fixed = measure_gain_trials(factory, plan, N_TRIALS, SEED)
        with TrialRunner(workers=workers) as runner:
            streamed = measure_gain_trials(
                factory,
                plan,
                N_TRIALS,
                SEED,
                runner=runner,
                adaptive=AdaptiveConfig(
                    ci_target=1e6, min_trials=5, batch_trials=4
                ),
            )
        assert len(streamed) == 5
        assert streamed == fixed[: len(streamed)]


class TestPowerUpParity:
    def _tally(self, plan, factory, **kwargs):
        return power_up_trials(
            plan,
            factory,
            WATER,
            6.0,
            standard_tag_spec(),
            N_TRIALS,
            SEED,
            **kwargs,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_budget_adaptive_matches_fixed(self, plan, factory, workers):
        fixed = self._tally(plan, factory)
        with TrialRunner(workers=workers) as runner:
            streamed = self._tally(
                plan, factory, runner=runner, adaptive=NO_TARGET
            )
        assert streamed.successes == fixed.successes
        assert streamed.trials == fixed.trials
        assert streamed.outcome is not None
        assert streamed.outcome.trials_saved == 0

    def test_saturated_point_stops_on_ci(self, plan, factory):
        # 0.10 m is deep inside the power-up regime: every trial succeeds
        # and the Wilson interval tightens fast.
        streamed = self._tally(
            plan,
            factory,
            adaptive=AdaptiveConfig(
                ci_target=0.25, min_trials=5, batch_trials=4
            ),
        )
        assert streamed.outcome.stop == STOP_CI_MET
        assert streamed.trials < N_TRIALS
        fixed = self._tally(plan, factory)
        assert streamed.probability == fixed.probability == 1.0


class TestWakeupParity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_budget_adaptive_rows_match_fixed(self, workers):
        fixed = wakeup_latency.run(wakeup_latency.WakeupConfig.fast())
        streamed = wakeup_latency.run(
            replace(
                wakeup_latency.WakeupConfig.fast(),
                workers=workers,
                adaptive=AdaptiveConfig(min_trials=2, batch_trials=2),
            )
        )
        assert streamed.rows == fixed.rows


class TestBerParity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_budget_adaptive_curves_match_fixed(self, workers):
        fixed = ber.run(ber.BerConfig.fast())
        base = ber.BerConfig.fast()
        streamed = ber.run(
            ber.BerConfig(
                snr_db_points=base.snr_db_points,
                n_words=base.n_words,
                workers=workers,
                adaptive=AdaptiveConfig(min_trials=10, batch_trials=5),
            )
        )
        assert streamed.curves == fixed.curves


class TestCliFlags:
    def test_sub_flags_require_adaptive(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig04", "--fast", "--ci-target", "0.5"])
        assert "--adaptive" in capsys.readouterr().err

    def test_rejects_bad_adaptive_values(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig04", "--fast", "--adaptive", "--ci-target", "-1"])
        assert "ci_target" in capsys.readouterr().err
