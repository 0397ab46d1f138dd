"""Fig. 10 -- gain vs receive-antenna depth and orientation in water.

The 10-antenna CIB gain is flat across depth (0-20 cm) and orientation
(0-2 pi): CIB is blind to the channel, so its *gain* is position- and
orientation-independent even though the absolute received power falls
with depth.
"""

import math
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
class Fig10Config:
    """Depth/orientation sweep parameters."""

    depths_m: tuple = (0.0, 0.05, 0.10, 0.15, 0.20)
    orientations_rad: tuple = (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi,
                               math.pi, 1.25 * math.pi, 1.5 * math.pi)
    n_trials: int = 30
    seed: int = 10
    workers: int = 1
    adaptive: Optional[AdaptiveConfig] = None

    @classmethod
    def fast(cls) -> "Fig10Config":
        return cls(
            depths_m=(0.0, 0.10, 0.20),
            orientations_rad=(0.0, 0.5 * math.pi, math.pi),
            n_trials=10,
        )


@dataclass
class Fig10Result:
    depth_rows: List[tuple]
    orientation_rows: List[tuple]

    def depth_table(self) -> Table:
        table = Table(
            title="Fig. 10a -- power gain vs depth in water (10-antenna CIB)",
            headers=("depth (cm)", "median gain", "p10", "p90"),
        )
        for row in self.depth_rows:
            table.add_row(*row)
        return table

    def orientation_table(self) -> Table:
        table = Table(
            title="Fig. 10b -- power gain vs orientation (10-antenna CIB)",
            headers=("orientation (rad)", "median gain", "p10", "p90"),
        )
        for row in self.orientation_rows:
            table.add_row(*row)
        return table


def run(config: Fig10Config = Fig10Config()) -> Fig10Result:
    """Sweep depth and orientation; gain should stay flat in both."""
    plan = paper_plan()
    tank = WaterTankPhantom(standoff_m=TANK_STANDOFF_POWER_GAIN_M)
    with TrialRunner(workers=config.workers) as runner:
        depth_rows: List[tuple] = []
        for depth in config.depths_m:
            factory = TankChannelFactory(
                tank, plan.n_antennas, depth, plan.center_frequency_hz
            )
            samples = measure_gain_trials(
                factory,
                plan,
                n_trials=config.n_trials,
                seed=config.seed + int(depth * 1000),
                include_baseline=False,
                runner=runner,
                adaptive=config.adaptive,
            )
            summary = percentile_summary([s.cib_gain for s in samples])
            depth_rows.append(
                (depth * 100.0, summary.median, summary.p10, summary.p90)
            )

        orientation_rows: List[tuple] = []
        for angle in config.orientations_rad:
            # A rotated linear tag antenna scales all per-antenna gains by the
            # same orientation factor; the gain ratio is taken at the same
            # orientation, mirroring the paper's measurement.
            orientation_gain = max(abs(math.cos(angle)), 0.05)
            factory = TankChannelFactory(
                tank,
                plan.n_antennas,
                0.10,
                plan.center_frequency_hz,
                orientation_gain=orientation_gain,
            )
            samples = measure_gain_trials(
                factory,
                plan,
                n_trials=config.n_trials,
                seed=config.seed + 7919 + int(angle * 1000),
                include_baseline=False,
                runner=runner,
                adaptive=config.adaptive,
            )
            summary = percentile_summary([s.cib_gain for s in samples])
            orientation_rows.append(
                (angle, summary.median, summary.p10, summary.p90)
            )
    return Fig10Result(depth_rows=depth_rows, orientation_rows=orientation_rows)
