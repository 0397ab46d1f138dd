"""Fig. 4 -- the threshold effect across deployment regimes.

The illustrative figure of Sec. 2.3: as a sensor moves from air (close to
the source) to shallow tissue to deep tissue, its input amplitude falls,
the conduction angle shrinks, and below the threshold voltage harvesting
stops entirely. This experiment reproduces the three regimes numerically
and adds the paper's punchline: CIB's envelope peak restores the deep
regime to life.

Beyond the single illustrative draw, the experiment now runs a Monte-Carlo
study of the CIB peak factor over ``n_trials`` random phase draws on the
batched :mod:`repro.runtime` engine, reporting the distribution of the
restored deep-tissue voltage and the fraction of draws that clear the
diode threshold.
"""

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.mc import spawn_rngs
from repro.analysis.stats import percentile_summary
from repro.constants import DIODE_THRESHOLD_V
from repro.core.plan import paper_plan
from repro.core import waveform
from repro.em.media import AIR, MUSCLE
from repro.em.propagation import tissue_field_amplitude
from repro.experiments.report import Table
from repro.harvester.rectifier import (
    conduction_angle_rad,
    harvesting_efficiency,
    ideal_output_voltage,
)
from repro.harvester.tag_power import HarvesterFrontEnd
from repro.rf.antenna import STANDARD_TAG_ANTENNA
from repro.runtime import engine as engine_mod
from repro.obs.context import current_obs
from repro.runtime.adaptive import (
    AdaptiveConfig,
    MeanTracker,
    adaptive_map_chunks,
)
from repro.runtime.runner import TrialRunner


@dataclass(frozen=True)
class Fig04Config:
    """Scenario parameters for the three regimes.

    Attributes:
        eirp_w: Single-antenna EIRP.
        air_distance_m: Source-to-body distance.
        shallow_depth_m / deep_depth_m: The Fig. 4b and 4c tissue depths.
        n_trials: Phase draws in the CIB peak-factor Monte-Carlo study.
        workers: Worker processes for the study.
        adaptive: Optional streaming-allocation policy for the study
            (CI over the mean peak factor).
    """

    eirp_w: float = 6.0
    air_distance_m: float = 0.5
    shallow_depth_m: float = 0.01
    deep_depth_m: float = 0.12
    seed: int = 4
    n_trials: int = 500
    workers: int = 1
    adaptive: Optional[AdaptiveConfig] = None

    @classmethod
    def fast(cls) -> "Fig04Config":
        return cls(n_trials=60)


@dataclass
class Fig04Result:
    rows: List[Tuple]
    cib_deep_conduction_rad: float
    cib_voltage: float = 0.0
    peak_factor_median: float = 0.0
    peak_factor_p10: float = 0.0
    peak_factor_p90: float = 0.0
    above_threshold_fraction: float = 0.0
    n_trials: int = 0

    def table(self) -> Table:
        table = Table(
            title="Fig. 4 -- conduction angle across deployment regimes",
            headers=(
                "regime",
                "input V_s (V)",
                "conduction angle (rad)",
                "efficiency",
                "V_DC (V)",
            ),
        )
        for row in self.rows:
            table.add_row(*row)
        table.add_row(
            "deep tissue + 10-antenna CIB peak",
            self.cib_voltage,
            self.cib_deep_conduction_rad,
            harvesting_efficiency(self.cib_voltage, DIODE_THRESHOLD_V),
            ideal_output_voltage(self.cib_voltage),
        )
        return table

    def monte_carlo_table(self) -> Table:
        table = Table(
            title=(
                "Fig. 4 (MC) -- CIB peak factor over "
                f"{self.n_trials} phase draws"
            ),
            headers=("quantity", "value"),
        )
        table.add_row("median peak factor", self.peak_factor_median)
        table.add_row("p10 peak factor", self.peak_factor_p10)
        table.add_row("p90 peak factor", self.peak_factor_p90)
        table.add_row(
            "fraction of draws above diode threshold",
            self.above_threshold_fraction,
        )
        return table


def _peak_factor_chunk(
    start: int,
    count: int,
    offsets: np.ndarray,
    seed: int,
) -> np.ndarray:
    """Peak factors of phase draws ``[start, start + count)``."""
    obs = current_obs()
    with obs.stage_span("peak_factors.realize", trials=count):
        rngs = spawn_rngs(seed, count, start)
        betas = np.vstack(
            [rng.uniform(0.0, 2.0 * np.pi, offsets.size) for rng in rngs]
        )
    with obs.stage_span("peak_factors.evaluate", trials=count):
        return engine_mod.peak_amplitudes(offsets, betas, 1.0)


def peak_factors(
    n_trials: int,
    seed: int,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    adaptive: Optional[AdaptiveConfig] = None,
) -> np.ndarray:
    """Monte-Carlo CIB peak factors of the paper plan (batched engine).

    With an ``adaptive`` config, draws stream in batches until the CI on
    the mean peak factor meets the target; the returned array is the
    exact bitwise prefix of the fixed ``budget``-draw run.
    """
    if n_trials <= 0:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    offsets = paper_plan().offsets_array()
    streaming = adaptive is not None and adaptive.enabled
    fn = partial(
        _peak_factor_chunk,
        offsets=offsets,
        seed=seed,
    )
    with TrialRunner(workers=workers, chunk_size=chunk_size) as runner:
        if not streaming:
            return np.concatenate(runner.map_chunks(fn, n_trials))
        tracker = MeanTracker(adaptive.confidence_z)

        def absorb(part, count):
            tracker.add(part)
            return tracker.interval()

        parts, _ = adaptive_map_chunks(
            runner, fn, n_trials, adaptive, absorb, point="peak_factors"
        )
    return np.concatenate(parts)


def run(config: Fig04Config = Fig04Config()) -> Fig04Result:
    front_end = HarvesterFrontEnd(antenna=STANDARD_TAG_ANTENNA)
    scenarios = [
        ("air, close to source (Fig. 4a)", AIR, 0.0),
        ("shallow tissue (Fig. 4b)", MUSCLE, config.shallow_depth_m),
        ("deep tissue (Fig. 4c)", MUSCLE, config.deep_depth_m),
    ]
    rows: List[Tuple] = []
    deep_voltage = 0.0
    for label, medium, depth in scenarios:
        field = tissue_field_amplitude(
            config.eirp_w, config.air_distance_m, depth, medium, 915e6
        )
        voltage = front_end.input_voltage_amplitude_v(field, medium, 915e6)
        rows.append(
            (
                label,
                voltage,
                conduction_angle_rad(voltage, DIODE_THRESHOLD_V),
                harvesting_efficiency(voltage, DIODE_THRESHOLD_V),
                ideal_output_voltage(voltage),
            )
        )
        if depth == config.deep_depth_m:
            deep_voltage = voltage

    # The punchline: the CIB envelope peak at the same deep location.
    rng = np.random.default_rng(config.seed)
    plan = paper_plan()
    betas = rng.uniform(0, 2 * np.pi, plan.n_antennas)
    peak_factor, _ = waveform.peak_envelope(plan.offsets_array(), betas)
    cib_voltage = deep_voltage * peak_factor

    # Distribution of the restored voltage over many blind phase draws.
    factors = peak_factors(
        config.n_trials, config.seed,
        workers=config.workers, adaptive=config.adaptive,
    )
    summary = percentile_summary(factors)
    above = float(np.mean(factors * deep_voltage > DIODE_THRESHOLD_V))

    return Fig04Result(
        rows=rows,
        cib_deep_conduction_rad=conduction_angle_rad(
            cib_voltage, DIODE_THRESHOLD_V
        ),
        cib_voltage=cib_voltage,
        peak_factor_median=summary.median,
        peak_factor_p10=summary.p10,
        peak_factor_p90=summary.p90,
        above_threshold_fraction=above,
        n_trials=int(factors.size),
    )
