"""Fig. 11 -- CIB vs baseline gain across media.

Seven media (air, water, simulated gastric and intestinal fluids, steak,
bacon, chicken): CIB's median gain stays roughly constant (~80x in the
paper) while the blind 10-antenna baseline only realizes the ~N-times
total-power increase. CIB's gain is medium-agnostic by construction.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.stats import percentile_summary
from repro.constants import TANK_STANDOFF_POWER_GAIN_M
from repro.core.plan import paper_plan
from repro.em.media import FIG11_MEDIA, Medium
from repro.em.phantoms import WaterTankPhantom
from repro.experiments.common import TankChannelFactory, measure_gain_trials
from repro.experiments.report import Table
from repro.runtime.adaptive import AdaptiveConfig
from repro.runtime.runner import TrialRunner


@dataclass(frozen=True)
class Fig11Config:
    """Media-sweep parameters.

    Attributes:
        media: Media evaluated (defaults to the paper's seven).
        depth_m: Sensor depth inside the medium.
        n_trials: Trials per medium (paper: 100 total).
        seed: Experiment seed.
        workers: Worker processes for the trial chunks.
    """

    media: Tuple[Medium, ...] = FIG11_MEDIA
    depth_m: float = 0.05
    n_trials: int = 40
    seed: int = 11
    workers: int = 1
    adaptive: Optional[AdaptiveConfig] = None

    @classmethod
    def fast(cls) -> "Fig11Config":
        return cls(n_trials=12)


@dataclass
class Fig11Result:
    rows: List[tuple]

    def table(self) -> Table:
        table = Table(
            title="Fig. 11 -- median power gain across media (10 antennas)",
            headers=(
                "medium",
                "CIB median",
                "CIB p10",
                "CIB p90",
                "baseline median",
                "baseline p10",
                "baseline p90",
            ),
        )
        for row in self.rows:
            table.add_row(*row)
        return table

    def cib_medians(self) -> List[float]:
        return [row[1] for row in self.rows]

    def baseline_medians(self) -> List[float]:
        return [row[4] for row in self.rows]


def run(config: Fig11Config = Fig11Config()) -> Fig11Result:
    """Measure CIB and baseline gains in each medium."""
    plan = paper_plan()
    rows: List[tuple] = []
    with TrialRunner(workers=config.workers) as runner:
        for index, medium in enumerate(config.media):
            tank = WaterTankPhantom(
                medium=medium, standoff_m=TANK_STANDOFF_POWER_GAIN_M
            )
            factory = TankChannelFactory(
                tank, plan.n_antennas, config.depth_m, plan.center_frequency_hz
            )
            samples = measure_gain_trials(
                factory,
                plan,
                n_trials=config.n_trials,
                seed=config.seed + index,
                runner=runner,
                adaptive=config.adaptive,
            )
            cib = percentile_summary([s.cib_gain for s in samples])
            baseline = percentile_summary([s.baseline_gain for s in samples])
            rows.append(
                (
                    medium.name,
                    cib.median,
                    cib.p10,
                    cib.p90,
                    baseline.median,
                    baseline.p10,
                    baseline.p90,
                )
            )
    return Fig11Result(rows=rows)
