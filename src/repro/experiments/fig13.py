"""Fig. 13 -- operating range/depth versus number of antennas.

Four panels: standard and miniature tags, in air (operating *range*) and
in water (operating *depth* with the array 90 cm from the tank). The
transmit EIRP is calibrated once so the single-antenna standard-tag air
range matches the paper's 5.2 m; everything else is a model prediction.
Expected shapes: air range grows like sqrt(peak power gain) (~7.6x at 8
antennas, 38 m absolute); water depth grows logarithmically in the
antenna count (exponential tissue loss) to ~23 cm (standard) and ~11 cm
(miniature).
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.calibration import bisect_increasing, calibrate_scalar
from repro.constants import (
    SINGLE_ANTENNA_RFID_RANGE_M,
    TANK_STANDOFF_RANGE_M,
)
from repro.core.plan import CarrierPlan, paper_plan
from repro.em.media import AIR, WATER
from repro.em.phantoms import WaterTankPhantom
from repro.experiments.common import TankChannelFactory, power_up_probability
from repro.experiments.report import Table
from repro.runtime.adaptive import AdaptiveConfig
from repro.runtime.runner import TrialRunner
from repro.sensors.tags import TagSpec, miniature_tag_spec, standard_tag_spec


@dataclass(frozen=True)
class Fig13Config:
    """Range-sweep parameters.

    Attributes:
        antenna_counts: Array sizes evaluated (paper: 1-8).
        n_trials: Channel draws per probe point.
        success_fraction: A distance counts as "in range" when at least
            this fraction of trials powers the tag (the paper verified
            each maximum three times).
        calibrate: Re-derive the EIRP from the 5.2 m baseline; when False,
            ``eirp_w`` is used directly.
        eirp_w: Per-branch EIRP when calibration is off.
        seed: Experiment seed.
        workers: Worker processes for the trial chunks; :func:`run` opens
            one pool of this size and reuses it for every probe.
    """

    antenna_counts: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    n_trials: int = 9
    success_fraction: float = 0.5
    calibrate: bool = True
    eirp_w: float = 6.0
    seed: int = 13
    workers: int = 1
    adaptive: Optional[AdaptiveConfig] = None

    @classmethod
    def fast(cls) -> "Fig13Config":
        return cls(antenna_counts=(1, 2, 4, 8), n_trials=5)


@dataclass
class Fig13Result:
    """Ranges per panel: {(tag, medium): [(n_antennas, range_m), ...]}."""

    panels: Dict[Tuple[str, str], List[Tuple[int, float]]]
    eirp_w: float

    def table(self) -> Table:
        table = Table(
            title=(
                "Fig. 13 -- operating range/depth vs antennas "
                f"(EIRP {self.eirp_w:.1f} W per branch)"
            ),
            headers=(
                "antennas",
                "std air range (m)",
                "mini air range (m)",
                "std water depth (cm)",
                "mini water depth (cm)",
            ),
        )
        counts = [n for n, _ in self.panels[("standard", "air")]]
        for index, n in enumerate(counts):
            table.add_row(
                n,
                self.panels[("standard", "air")][index][1],
                self.panels[("miniature", "air")][index][1],
                self.panels[("standard", "water")][index][1] * 100.0,
                self.panels[("miniature", "water")][index][1] * 100.0,
            )
        return table

    def range_gain(self, tag: str, medium: str) -> float:
        """Max-antennas range over single-antenna range (inf when 0/0)."""
        series = self.panels[(tag, medium)]
        first = series[0][1]
        last = series[-1][1]
        if first == 0:
            return float("inf") if last > 0 else 1.0
        return last / first


def _air_range_m(
    plan: CarrierPlan,
    spec: TagSpec,
    eirp_w: float,
    config: Fig13Config,
    seed: int,
    runner: Optional[TrialRunner] = None,
) -> float:
    """Largest air distance where the tag still powers up."""

    def powers_at(distance: float) -> bool:
        tank = WaterTankPhantom(medium=AIR, standoff_m=distance)
        factory = TankChannelFactory(
            tank, plan.n_antennas, 0.0, plan.center_frequency_hz
        )
        probability = power_up_probability(
            plan, factory, AIR, eirp_w, spec, config.n_trials, seed,
            runner=runner,
            adaptive=config.adaptive,
        )
        return probability >= config.success_fraction

    if not powers_at(0.05):
        return 0.0
    return bisect_increasing(powers_at, 0.05, 120.0, tolerance=0.05)


def _water_depth_m(
    plan: CarrierPlan,
    spec: TagSpec,
    eirp_w: float,
    config: Fig13Config,
    seed: int,
    runner: Optional[TrialRunner] = None,
) -> float:
    """Largest water depth where the tag still powers up (90 cm standoff)."""
    tank = WaterTankPhantom(medium=WATER, standoff_m=TANK_STANDOFF_RANGE_M)

    def powers_at(depth: float) -> bool:
        factory = TankChannelFactory(
            tank, plan.n_antennas, depth, plan.center_frequency_hz
        )
        probability = power_up_probability(
            plan, factory, WATER, eirp_w, spec, config.n_trials, seed,
            runner=runner,
            adaptive=config.adaptive,
        )
        return probability >= config.success_fraction

    if not powers_at(1e-4):
        return 0.0
    return bisect_increasing(powers_at, 1e-4, 0.60, tolerance=0.002)


def calibrated_eirp_w(
    config: Fig13Config = Fig13Config(),
    target_m: float = SINGLE_ANTENNA_RFID_RANGE_M,
    runner: Optional[TrialRunner] = None,
) -> float:
    """EIRP whose single-antenna standard-tag air range equals the paper's.

    ``runner`` executes the probes' trial chunks (``None``: in-process).
    """
    plan = paper_plan().subset(1)
    spec = standard_tag_spec()

    def objective(eirp: float) -> float:
        return _air_range_m(plan, spec, eirp, config, config.seed, runner)

    return calibrate_scalar(objective, target_m, low=0.5, high=40.0, tolerance=0.02)


def run(config: Fig13Config = Fig13Config()) -> Fig13Result:
    """Produce all four panels of Fig. 13 on one worker pool."""
    full_plan = paper_plan()
    specs = {"standard": standard_tag_spec(), "miniature": miniature_tag_spec()}
    panels: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    with TrialRunner(workers=config.workers) as runner:
        if config.calibrate:
            eirp = calibrated_eirp_w(config, runner=runner)
        else:
            eirp = config.eirp_w
        for tag_name, spec in specs.items():
            air_series: List[Tuple[int, float]] = []
            water_series: List[Tuple[int, float]] = []
            for n_antennas in config.antenna_counts:
                plan = full_plan.subset(n_antennas)
                seed = (
                    config.seed
                    + 37 * n_antennas
                    + (0 if tag_name == "standard" else 1)
                )
                air_range = _air_range_m(plan, spec, eirp, config, seed, runner)
                water_depth = _water_depth_m(
                    plan, spec, eirp, config, seed + 11, runner
                )
                air_series.append((n_antennas, air_range))
                water_series.append((n_antennas, water_depth))
            panels[(tag_name, "air")] = air_series
            panels[(tag_name, "water")] = water_series
    return Fig13Result(panels=panels, eirp_w=eirp)
