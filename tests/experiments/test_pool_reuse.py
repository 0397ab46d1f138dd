"""One worker pool per experiment run.

A driver opens one :class:`~repro.runtime.runner.TrialRunner` and passes it
to every measurement call, so a sweep of many small maps (the Fig. 13
bisection probes, the adaptive allocator's batches) starts its pool once.
"""

from repro.core.plan import paper_plan
from repro.em.media import WATER
from repro.em.phantoms import WaterTankPhantom
from repro.experiments import fig13
from repro.experiments.common import TankChannelFactory, power_up_trials
from repro.obs.context import obs_context
from repro.runtime.adaptive import AdaptiveConfig
from repro.runtime.runner import TrialRunner
from repro.sensors.tags import standard_tag_spec

SMALL_FIG13 = fig13.Fig13Config(antenna_counts=(1, 2), n_trials=3, calibrate=False)


def test_fig13_pooled_run_matches_serial_on_one_pool():
    serial = fig13.run(SMALL_FIG13)
    with obs_context() as obs:
        pooled = fig13.run(
            fig13.Fig13Config(
                antenna_counts=(1, 2), n_trials=3, calibrate=False, workers=2
            )
        )
    counters = obs.metrics.counters()
    assert pooled.panels == serial.panels
    assert pooled.eirp_w == serial.eirp_w
    assert counters["runner.pool_starts"] == 1
    # Every probe's map is pooled: n_trials=3 splits into two spans.
    assert counters["runner.chunks"] > 2


def test_fig13_serial_run_starts_no_pool():
    with obs_context() as obs:
        fig13.run(SMALL_FIG13)
    assert "runner.pool_starts" not in obs.metrics.counters()


def test_adaptive_power_up_maps_every_batch_on_one_pool(monkeypatch):
    plan = paper_plan().subset(4)
    factory = TankChannelFactory(
        WaterTankPhantom(standoff_m=0.9), 4, 0.10, plan.center_frequency_hz
    )
    batches = []
    map_range = TrialRunner.map_range

    def counting(self, fn, start, stop, label="runner.chunk"):
        batches.append((start, stop))
        return map_range(self, fn, start, stop, label)

    monkeypatch.setattr(TrialRunner, "map_range", counting)
    with obs_context() as obs, TrialRunner(workers=2) as runner:
        tally = power_up_trials(
            plan, factory, WATER, 6.0, standard_tag_spec(), 12, 7,
            runner=runner,
            adaptive=AdaptiveConfig(min_trials=4, batch_trials=4),
        )
    assert tally.trials == 12
    assert len(batches) >= 3
    assert obs.metrics.counters()["runner.pool_starts"] == 1

