"""Sensitivity analysis: do the headline conclusions survive the unknowns?

A reproduction built on physics models owes its readers this table: the
tag threshold voltage (the paper cites 0.2-0.4 V across IC processes), the
tank-water loss, and the tag aperture efficiency are all calibration
guesses. This experiment perturbs each and re-measures two headline
results:

* the Fig. 13a air-range *gain* at 8 antennas (paper: ~7.6x), and
* the Fig. 13c water depth at 8 antennas (paper: ~23 cm).

The *absolute* numbers move with the parameters -- that is why the model
is calibrated through the single-antenna baseline -- but the paper's
conclusions (multiplicative range gain ~ sqrt(peak gain); deep-tissue
operation only with the array) should hold across the whole band.
"""

from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from repro.core.plan import paper_plan
from repro.em.media import Medium, WATER
from repro.em.phantoms import WaterTankPhantom
from repro.experiments import fig13
from repro.experiments.report import Table
from repro.sensors.tags import TagSpec, standard_tag_spec


@dataclass(frozen=True)
class SensitivityConfig:
    """Perturbation sweep parameters."""

    thresholds_v: Tuple[float, ...] = (0.2, 0.3, 0.4)
    water_conductivities: Tuple[float, ...] = (0.20, 0.30, 0.45)
    aperture_scales: Tuple[float, ...] = (0.5, 1.0, 2.0)
    n_trials: int = 5
    seed: int = 53

    @classmethod
    def fast(cls) -> "SensitivityConfig":
        return cls(
            thresholds_v=(0.2, 0.4),
            water_conductivities=(0.20, 0.45),
            aperture_scales=(0.5, 2.0),
            n_trials=4,
        )


@dataclass
class SensitivityResult:
    """(parameter, value, air gain @8, water depth @8 in cm) rows."""

    rows: List[Tuple[str, float, float, float]]

    def table(self) -> Table:
        table = Table(
            title=(
                "Sensitivity -- headline results under perturbed calibration "
                "(8 antennas, single-antenna range re-calibrated per row)"
            ),
            headers=(
                "parameter",
                "value",
                "air range gain @8",
                "water depth @8 (cm)",
            ),
        )
        for row in self.rows:
            table.add_row(*row)
        return table

    def gains(self) -> List[float]:
        return [row[2] for row in self.rows]

    def depths_cm(self) -> List[float]:
        return [row[3] for row in self.rows]


def _headline(
    spec: TagSpec,
    water: Medium,
    config: SensitivityConfig,
    seed: int,
) -> Tuple[float, float]:
    """Re-calibrate, then measure the 8-antenna gain and water depth."""
    fig_config = fig13.Fig13Config(
        antenna_counts=(1, 8), n_trials=config.n_trials, seed=seed
    )

    def objective(eirp: float) -> float:
        return fig13._air_range_m(
            paper_plan().subset(1), spec, eirp, fig_config, seed
        )

    from repro.analysis.calibration import calibrate_scalar

    eirp = calibrate_scalar(objective, 5.2, low=0.2, high=80.0, tolerance=0.05)

    range_1 = fig13._air_range_m(
        paper_plan().subset(1), spec, eirp, fig_config, seed
    )
    range_8 = fig13._air_range_m(
        paper_plan().subset(8), spec, eirp, fig_config, seed + 1
    )
    gain = range_8 / range_1 if range_1 > 0 else float("inf")

    # Water depth with the perturbed medium: rebuild the Fig. 13c search
    # against a tank filled with the perturbed water.
    tank = WaterTankPhantom(medium=water, standoff_m=0.9)
    from repro.analysis.calibration import bisect_increasing
    from repro.experiments.common import power_up_probability

    plan8 = paper_plan().subset(8)

    def powers_at(depth: float) -> bool:
        def factory(rng: np.random.Generator):
            return tank.channel(8, depth, plan8.center_frequency_hz, rng=rng)

        probability = power_up_probability(
            plan8, factory, water, eirp, spec, config.n_trials, seed + 2
        )
        return probability >= 0.5

    if not powers_at(1e-4):
        depth = 0.0
    else:
        depth = bisect_increasing(powers_at, 1e-4, 0.6, tolerance=0.003)
    return gain, depth * 100.0


def run(config: SensitivityConfig = SensitivityConfig()) -> SensitivityResult:
    rows: List[Tuple[str, float, float, float]] = []
    base_spec = standard_tag_spec()

    for threshold in config.thresholds_v:
        spec = replace(base_spec, threshold_v=threshold)
        gain, depth = _headline(spec, WATER, config, config.seed)
        rows.append(("diode threshold (V)", threshold, gain, depth))

    for conductivity in config.water_conductivities:
        water = Medium(
            "water*", relative_permittivity=78.0,
            conductivity_s_per_m=conductivity,
        )
        gain, depth = _headline(base_spec, water, config, config.seed + 10)
        rows.append(("water conductivity (S/m)", conductivity, gain, depth))

    for scale in config.aperture_scales:
        antenna = replace(
            base_spec.antenna,
            aperture_efficiency=min(1.0, base_spec.antenna.aperture_efficiency * scale),
        )
        spec = replace(base_spec, antenna=antenna)
        gain, depth = _headline(spec, WATER, config, config.seed + 20)
        rows.append(("aperture efficiency scale", scale, gain, depth))

    return SensitivityResult(rows=rows)
