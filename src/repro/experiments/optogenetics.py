"""Extension experiment: powering optogenetic brain implants (Sec. 1).

The paper's opening example: untethered optogenetic manipulators today
need the mammal inside a charged 10-cm resonant cavity [50]; IVN's promise
is powering such millimeter implants from "realistic indoor environments",
a meter or more away. This experiment quantifies that claim on the head
phantom: power-up probability of a miniature implant versus cortical depth
and beamformer size.
"""

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.plan import paper_plan
from repro.em.media import BRAIN
from repro.em.phantoms import HeadPhantom
from repro.experiments.common import power_up_probability
from repro.experiments.report import Table
from repro.sensors.tags import miniature_tag_spec


@dataclass(frozen=True)
class OptogeneticsConfig:
    """Brain-implant sweep parameters.

    Attributes:
        depths_m: Cortical implant depths swept (the motor cortex sits at
            1-3 cm in humans; mouse-scale targets are shallower).
        antenna_counts: Beamformer sizes evaluated.
        eirp_per_branch_w: Radiated EIRP per branch.
        n_trials: Channel draws per point.
        seed: Experiment seed.
    """

    depths_m: Tuple[float, ...] = (0.005, 0.01, 0.02, 0.03, 0.04)
    antenna_counts: Tuple[int, ...] = (1, 4, 8, 10)
    eirp_per_branch_w: float = 6.0
    n_trials: int = 12
    seed: int = 50

    @classmethod
    def fast(cls) -> "OptogeneticsConfig":
        return cls(depths_m=(0.01, 0.03), antenna_counts=(1, 8), n_trials=6)


@dataclass
class OptogeneticsResult:
    """Power-up probability per (depth, antenna count)."""

    grid: Dict[Tuple[float, int], float]
    depths_m: Tuple[float, ...]
    antenna_counts: Tuple[int, ...]

    def table(self) -> Table:
        table = Table(
            title=(
                "Extension -- miniature brain implant power-up probability "
                "(head phantom, 0.5-1.5 m standoff)"
            ),
            headers=("implant depth (cm)",)
            + tuple(f"N={n}" for n in self.antenna_counts),
        )
        for depth in self.depths_m:
            table.add_row(
                depth * 100.0,
                *(self.grid[(depth, n)] for n in self.antenna_counts),
            )
        return table

    def probability(self, depth_m: float, n_antennas: int) -> float:
        return self.grid[(depth_m, n_antennas)]


def run(config: OptogeneticsConfig = OptogeneticsConfig()) -> OptogeneticsResult:
    phantom = HeadPhantom()
    spec = miniature_tag_spec()
    grid: Dict[Tuple[float, int], float] = {}
    for depth in config.depths_m:
        for n_antennas in config.antenna_counts:
            plan = paper_plan().subset(n_antennas)

            def factory(rng: np.random.Generator, d=depth, n=n_antennas):
                return phantom.channel(d, n, plan.center_frequency_hz, rng)

            grid[(depth, n_antennas)] = power_up_probability(
                plan,
                factory,
                BRAIN,
                config.eirp_per_branch_w,
                spec,
                config.n_trials,
                seed=config.seed + int(depth * 1e4) + n_antennas,
            )
    return OptogeneticsResult(
        grid=grid,
        depths_m=config.depths_m,
        antenna_counts=config.antenna_counts,
    )
