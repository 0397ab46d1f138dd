"""Ablations of the design choices the paper calls out.

* **Beamsteering vs blind baseline across media** (footnote 5): coherent
  beamsteering beats the blind baseline in line-of-sight air but collapses
  to it in unknown media.
* **Equal-total-power CIB** (Sec. 3.4): with amplitudes scaled by
  1/sqrt(N), CIB still delivers ~N-times peak power over a single antenna
  of the same total power.
* **Flatness constraint on/off** (Sec. 3.6): an offset set violating the
  Eq. 9 budget produces envelope fluctuation the sensor cannot decode
  through.
* **Two-stage scheduler** (Sec. 3.7): after discovery, compressing the
  offsets raises the conduction fraction at a known link margin.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.stats import percentile_summary
from repro.core.baselines import (
    BeamsteeringTransmitter,
    BlindSameFrequencyTransmitter,
    CIBTransmitter,
)
from repro.core.constraints import FlatnessConstraint
from repro.core.plan import CarrierPlan, paper_plan
from repro.core.scheduler import TwoStageController
from repro.core.waveform import worst_case_peak_fluctuation
from repro.em.media import AIR, STEAK, WATER
from repro.em.phantoms import WaterTankPhantom
from repro.experiments.common import TankChannelFactory, measure_strategy_gains
from repro.experiments.report import Table
from repro.runtime.cache import optimized_plan
from repro.runtime.runner import TrialRunner


@dataclass(frozen=True)
class AblationConfig:
    n_trials: int = 30
    seed: int = 77
    workers: int = 1

    @classmethod
    def fast(cls) -> "AblationConfig":
        return cls(n_trials=10)


# Module-level strategy factories (picklable, unlike lambdas) so the
# ablation sweeps can fan out across worker processes.


class _BeamsteerFactory:
    def __call__(self, channel) -> BeamsteeringTransmitter:
        return BeamsteeringTransmitter(channel.geometric_phases())


@dataclass(frozen=True)
class _BlindFactory:
    n_antennas: int

    def __call__(self, channel) -> BlindSameFrequencyTransmitter:
        return BlindSameFrequencyTransmitter(self.n_antennas)


@dataclass(frozen=True)
class _CIBFactory:
    plan: CarrierPlan

    def __call__(self, channel) -> CIBTransmitter:
        return CIBTransmitter(self.plan)


def beamsteering_across_media(
    config: AblationConfig = AblationConfig(),
    runner: Optional[TrialRunner] = None,
) -> Table:
    """Footnote 5: beamsteering helps only where its phase model holds.

    ``runner`` executes the trial chunks (``None``: in-process).
    """
    plan = paper_plan()
    table = Table(
        title="Ablation (footnote 5) -- beamsteering vs blind baseline vs CIB",
        headers=("medium", "beamsteer median", "baseline median", "CIB median"),
    )
    for medium, phase_mode in ((AIR, "geometric"), (WATER, "perturbed"), (STEAK, "perturbed")):
        tank = WaterTankPhantom(medium=medium, standoff_m=0.5, geometry="linear")
        depth = 0.0 if medium == AIR else 0.05
        factory = TankChannelFactory(
            tank, plan.n_antennas, depth, plan.center_frequency_hz,
            phase_mode=phase_mode,
        )
        steer_gains = measure_strategy_gains(
            factory,
            _BeamsteerFactory(),
            config.n_trials,
            config.seed,
            runner=runner,
        )
        base_gains = measure_strategy_gains(
            factory,
            _BlindFactory(plan.n_antennas),
            config.n_trials,
            config.seed + 1,
            runner=runner,
        )
        cib_gains = measure_strategy_gains(
            factory,
            _CIBFactory(plan),
            config.n_trials,
            config.seed + 2,
            runner=runner,
        )
        table.add_row(
            medium.name,
            float(np.median(steer_gains)),
            float(np.median(base_gains)),
            float(np.median(cib_gains)),
        )
    return table


def equal_power_scaling(
    config: AblationConfig = AblationConfig(),
    runner: Optional[TrialRunner] = None,
) -> Table:
    """Sec. 3.4: CIB with a fixed total power budget still gains ~N.

    ``runner`` executes the trial chunks (``None``: in-process).
    """
    plan = paper_plan().equal_power_amplitudes()
    tank = WaterTankPhantom(standoff_m=0.5)
    factory = TankChannelFactory(
        tank, plan.n_antennas, 0.10, plan.center_frequency_hz
    )
    gains = measure_strategy_gains(
        factory,
        _CIBFactory(plan),
        config.n_trials,
        config.seed,
        runner=runner,
    )
    summary = percentile_summary(gains)
    table = Table(
        title="Ablation (Sec. 3.4) -- CIB at equal total power (1/sqrt(N) amplitudes)",
        headers=("quantity", "value"),
    )
    table.add_row("antennas", plan.n_antennas)
    table.add_row("median peak power gain", summary.median)
    table.add_row("p10", summary.p10)
    table.add_row("p90", summary.p90)
    table.add_row("theoretical N-times gain", float(plan.n_antennas))
    return table


def flatness_violation(config: AblationConfig = AblationConfig()) -> Table:
    """Sec. 3.6: an over-spread offset set breaks downlink decoding."""
    constraint = FlatnessConstraint()
    compliant = paper_plan().offsets_array()
    # Scale the paper set far past the budget (x40 keeps offsets distinct
    # integers while blowing through the RMS bound).
    violating = compliant * 40.0
    table = Table(
        title="Ablation (Sec. 3.6) -- flatness constraint on vs off",
        headers=(
            "offset set",
            "RMS (Hz)",
            "budget (Hz)",
            "worst-case fluctuation",
            "within tolerance",
        ),
    )
    for label, offsets in (("paper (compliant)", compliant), ("x40 (violating)", violating)):
        fluctuation = worst_case_peak_fluctuation(
            offsets, window_s=constraint.query_duration_s
        )
        table.add_row(
            label,
            float(np.sqrt(np.mean(offsets**2))),
            constraint.max_rms_offset_hz,
            fluctuation,
            fluctuation <= constraint.alpha,
        )
    return table


def two_stage_conduction(config: AblationConfig = AblationConfig()) -> Table:
    """Sec. 3.7: the steady stage widens the conduction window."""
    controller = TwoStageController(paper_plan())
    rng = np.random.default_rng(config.seed)
    table = Table(
        title="Ablation (Sec. 3.7) -- two-stage design: conduction fraction",
        headers=("link margin", "discovery fraction", "steady fraction", "improvement"),
    )
    for margin in (2.0, 4.0, 8.0):
        discovery, steady = controller.conduction_improvement(
            margin=margin,
            threshold_fraction=0.8 / margin,
            rng=rng,
            n_draws=max(4, config.n_trials // 4),
        )
        improvement = steady / discovery if discovery > 0 else float("inf")
        table.add_row(margin, discovery, steady, improvement)
    return table


def plan_quality(config: AblationConfig = AblationConfig()) -> Table:
    """Expected peak of paper vs optimized vs random vs worst plans."""
    from repro.core.optimizer import FrequencyOptimizer

    # The cached search and the rankings use separate optimizers: reusing
    # one instance would couple the ranking draws to whether the optimize()
    # call was a cache hit.
    optimized = optimized_plan(
        10,
        seed=config.seed,
        n_candidates=60,
        refine_rounds=1,
        workers=config.workers,
    )
    ranker = FrequencyOptimizer(10, n_draws=48, seed=config.seed)
    (best_random, best_value), (worst_random, worst_value) = (
        ranker.rank_random_sets(20)
    )
    paper_value = ranker.objective(
        tuple(int(v) for v in paper_plan().offsets_hz)
    )
    table = Table(
        title="Ablation (Sec. 3.5) -- frequency-set quality (10 antennas)",
        headers=("plan", "E[max Y]", "fraction of ideal N"),
    )
    for label, value in (
        ("optimized", optimized.expected_peak),
        ("paper set", paper_value),
        ("best random", best_value),
        ("worst random", worst_value),
    ):
        table.add_row(label, float(value), float(value) / 10.0)
    return table


def run(config: AblationConfig = AblationConfig()) -> List[Table]:
    """All five ablation tables; the trial-based two share one pool."""
    with TrialRunner(workers=config.workers) as runner:
        tables = [
            beamsteering_across_media(config, runner),
            equal_power_scaling(config, runner),
        ]
    return tables + [
        flatness_violation(config),
        two_stage_conduction(config),
        plan_quality(config),
    ]
