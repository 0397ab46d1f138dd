"""Fig. 9 -- peak power gain versus number of beamformer antennas.

150 trials with re-placed receive antennas; the gain grows monotonically
with the antenna count and reaches tens of times (the paper reports gains
as high as 85x at 10 antennas, short of the ideal N^2 = 100 because the
frequency set does not always align perfectly).
"""

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.stats import percentile_summary
from repro.constants import TANK_STANDOFF_POWER_GAIN_M
from repro.core.plan import paper_plan
from repro.em.phantoms import WaterTankPhantom
from repro.experiments.common import TankChannelFactory, measure_gain_trials
from repro.experiments.report import Table
from repro.runtime.adaptive import AdaptiveConfig
from repro.runtime.runner import TrialRunner


@dataclass(frozen=True)
class Fig09Config:
    """Gain-vs-antennas sweep parameters.

    Attributes:
        max_antennas: Largest array evaluated (paper: 10).
        n_trials: Trials per antenna count (paper: 150 total).
        depth_m: Receive-antenna depth in the tank.
        seed: Experiment seed.
        workers: Worker processes for the trial chunks.
        adaptive: Optional streaming-allocation policy; each antenna
            count's point stops once the CI on its mean CIB gain is
            tight.
    """

    max_antennas: int = 10
    n_trials: int = 50
    depth_m: float = 0.10
    seed: int = 9
    workers: int = 1
    adaptive: Optional[AdaptiveConfig] = None

    @classmethod
    def fast(cls) -> "Fig09Config":
        return cls(n_trials=15)


@dataclass
class Fig09Result:
    antenna_counts: List[int]
    medians: List[float]
    p10s: List[float]
    p90s: List[float]

    def table(self) -> Table:
        table = Table(
            title="Fig. 9 -- peak power gain vs number of antennas (water tank)",
            headers=("antennas", "median gain", "p10", "p90", "ideal N^2"),
        )
        for index, n in enumerate(self.antenna_counts):
            table.add_row(
                n,
                self.medians[index],
                self.p10s[index],
                self.p90s[index],
                float(n**2),
            )
        return table


def run(config: Fig09Config = Fig09Config()) -> Fig09Result:
    """Sweep antenna count with the paper's frequency-offset subsets."""
    full_plan = paper_plan()
    tank = WaterTankPhantom(standoff_m=TANK_STANDOFF_POWER_GAIN_M)
    result = Fig09Result([], [], [], [])
    with TrialRunner(workers=config.workers) as runner:
        for n_antennas in range(1, config.max_antennas + 1):
            plan = full_plan.subset(n_antennas)
            factory = TankChannelFactory(
                tank, n_antennas, config.depth_m, plan.center_frequency_hz
            )
            samples = measure_gain_trials(
                factory,
                plan,
                n_trials=config.n_trials,
                seed=config.seed + n_antennas,
                include_baseline=False,
                runner=runner,
                adaptive=config.adaptive,
            )
            summary = percentile_summary([s.cib_gain for s in samples])
            result.antenna_counts.append(n_antennas)
            result.medians.append(summary.median)
            result.p10s.append(summary.p10)
            result.p90s.append(summary.p90)
    return result
