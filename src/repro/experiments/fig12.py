"""Fig. 12 -- CDF of CIB's gain over the 10-antenna baseline, per location.

At every measured location the ratio of CIB's peak power to the blind
baseline's is computed over the *same* channel draw. The paper finds the
ratio above 1 in over 99 % of trials, a median around 8x, and a heavy
tail past 100x where the baseline happens to interfere destructively.
"""

from dataclasses import dataclass

import numpy as np

from repro.constants import TANK_STANDOFF_POWER_GAIN_M
from repro.core.plan import paper_plan
from repro.em.phantoms import WaterTankPhantom
from repro.experiments.common import TankChannelFactory, measure_gain_trials
from repro.experiments.report import Table
from repro.runtime.runner import TrialRunner


@dataclass(frozen=True)
class Fig12Config:
    """Ratio-CDF parameters."""

    n_trials: int = 200
    depth_m: float = 0.10
    seed: int = 12
    workers: int = 1

    @classmethod
    def fast(cls) -> "Fig12Config":
        return cls(n_trials=60)


@dataclass
class Fig12Result:
    ratios: np.ndarray

    @property
    def fraction_above_one(self) -> float:
        return float(np.mean(self.ratios > 1.0))

    @property
    def median_ratio(self) -> float:
        return float(np.median(self.ratios))

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios))

    def table(self) -> Table:
        table = Table(
            title="Fig. 12 -- CDF of CIB / 10-antenna-baseline power ratio",
            headers=("percentile", "power ratio"),
        )
        for percentile in (1, 5, 10, 25, 50, 75, 90, 95, 99):
            table.add_row(
                percentile, float(np.percentile(self.ratios, percentile))
            )
        table.add_row("frac > 1x", self.fraction_above_one)
        table.add_row("max", self.max_ratio)
        return table


def run(config: Fig12Config = Fig12Config()) -> Fig12Result:
    """Collect per-location CIB/baseline ratios in the water tank."""
    plan = paper_plan()
    tank = WaterTankPhantom(standoff_m=TANK_STANDOFF_POWER_GAIN_M)
    factory = TankChannelFactory(
        tank, plan.n_antennas, config.depth_m, plan.center_frequency_hz
    )
    with TrialRunner(workers=config.workers) as runner:
        samples = measure_gain_trials(
            factory,
            plan,
            n_trials=config.n_trials,
            seed=config.seed,
            runner=runner,
        )
    return Fig12Result(ratios=np.array([s.ratio for s in samples]))
