"""Degradation campaigns -- robustness tables under injected faults.

Extension experiment over :mod:`repro.faults`: severity sweeps of the
deterministic fault plans against three observables the paper's Section 6
measures in the healthy case.

* **Antenna dropout (the N-1 law).** At the constructive-alignment
  instant the CIB envelope sweeps through once per beat period, the field
  is the coherent sum of branch amplitudes; losing k of N unit branches
  drops the achievable envelope peak to exactly ``(N - k) / N`` of the
  healthy value. The sweep measures that ratio directly (``aligned``
  betas), so the table reproduces the law with no phase-sampling bias.
* **PLL relock jumps.** Blind CIB already draws every oscillator phase
  uniformly at random, so adding a random relock jump leaves the peak
  distribution invariant -- the mean blind peak is flat in severity to
  within Monte-Carlo error. This is the paper's core robustness claim:
  CIB needs no phase coherence to begin with.
* **Tag detuning.** Power-up probability of a miniature implant at
  cortical depth (the Sec. 1 optogenetics scenario) versus detuning
  voltage loss -- the one fault CIB cannot route around.
* **Downlink bit corruption.** FM0 decode success versus corruption
  severity under the Sec. 6.2 preamble-correlation rule.

All four tables come from :func:`repro.faults.run_campaign`-style sweeps
on the deterministic runtime: bit-identical for any ``--workers`` /
chunk-size combination.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.plan import paper_plan
from repro.em.media import BRAIN
from repro.em.phantoms import HeadPhantom
from repro.faults.campaign import (
    DEGRADATION_SCHEMA_VERSION,
    DegradationTable,
    decode_success_chunk_builder,
    peak_envelope_chunk_builder,
    run_campaign,
)
from repro.faults.plan import (
    EMPTY_PLAN,
    FaultPlan,
    antenna_dropout,
    bit_corruption,
    pll_relock,
    tag_detuning,
)
from repro.obs.context import current_obs
from repro.runtime.runner import TrialRunner
from repro.sensors.tags import miniature_tag_spec

PAYLOAD_BITS = (1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0)
"""16-bit word decoded in the corruption sweep (an EPC-style payload)."""


@dataclass(frozen=True)
class DegradationConfig:
    """Fault-sweep parameters.

    Attributes:
        n_antennas: Beamformer size N for the carrier-plane sweeps.
        dropout_counts: Antennas lost per point of the N-1 table (point k
            drops antennas ``0..k-1``; expectation ``(N - k) / N``).
        relock_severities: PLL relock severities (jump scale in units of
            the max +-pi jump).
        detuning_severities: Tag detuning severities (fraction of the max
            90% voltage loss).
        corruption_severities: Downlink corruption severities.
        peak_trials: Trials per point of the two envelope sweeps.
        power_trials: Channel draws per point of the power-up sweep.
        decode_trials: Decodes per point of the corruption sweep.
        depth_m: Cortical implant depth for the power-up sweep.
        eirp_per_branch_w: Radiated EIRP per branch for the power-up sweep.
        duration_s: Envelope capture window (1 s covers the paper plan's
            full beat period -- the offsets are integer Hz).
        samples_per_chip: FM0 waveform oversampling in the decode sweep.
        seed: Base seed; each table offsets it so sweeps stay independent.
        workers: Worker processes for the trial chunks.
    """

    n_antennas: int = 10
    dropout_counts: Tuple[int, ...] = (1, 2, 3)
    relock_severities: Tuple[float, ...] = (0.25, 0.5, 1.0)
    detuning_severities: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    corruption_severities: Tuple[float, ...] = (0.1, 0.3, 0.6, 1.0)
    peak_trials: int = 96
    power_trials: int = 24
    decode_trials: int = 96
    depth_m: float = 0.02
    eirp_per_branch_w: float = 6.0
    duration_s: float = 1.0
    samples_per_chip: int = 8
    seed: int = 77
    workers: int = 1

    @classmethod
    def fast(cls) -> "DegradationConfig":
        return cls(peak_trials=32, power_trials=8, decode_trials=32)


@dataclass
class DegradationResult:
    """The four degradation curves, in campaign order."""

    dropout: DegradationTable
    relock: DegradationTable
    detuning: DegradationTable
    corruption: DegradationTable

    def tables(self) -> List:
        return [
            self.dropout.table(),
            self.relock.table(),
            self.detuning.table(),
            self.corruption.table(),
        ]

    def to_json_dict(self) -> dict:
        """Versioned payload for ``--tables-out`` (CI-validated schema)."""
        return {
            "schema_version": DEGRADATION_SCHEMA_VERSION,
            "tables": {
                "antenna_dropout": self.dropout.to_json_dict(),
                "pll_relock": self.relock.to_json_dict(),
                "tag_detuning": self.detuning.to_json_dict(),
                "bit_corruption": self.corruption.to_json_dict(),
            },
        }


def expected_dropout_relative(n_antennas: int, dropped: int) -> float:
    """The N-1 law's prediction for ``dropped`` of ``n_antennas`` lost."""
    return (n_antennas - dropped) / n_antennas


# -- plan factories (module-level so the bound chunk fns stay picklable) -------


def _dropout_plan(severity: float) -> FaultPlan:
    count = int(round(severity))
    if count == 0:
        return EMPTY_PLAN
    return antenna_dropout(antennas=tuple(range(count)))


def _relock_plan(severity: float) -> FaultPlan:
    return EMPTY_PLAN if severity == 0.0 else pll_relock(severity)


def _corruption_plan(severity: float) -> FaultPlan:
    return EMPTY_PLAN if severity == 0.0 else bit_corruption(severity)


@dataclass(frozen=True)
class HeadChannelFactory:
    """Picklable head-phantom channel factory (cf. ``TankChannelFactory``)."""

    phantom: HeadPhantom
    depth_m: float
    n_antennas: int
    frequency_hz: float

    def __call__(self, rng: np.random.Generator):
        return self.phantom.channel(
            self.depth_m, self.n_antennas, self.frequency_hz, rng
        )


def _detuning_table(
    config: DegradationConfig, runner: TrialRunner
) -> DegradationTable:
    """Power-up probability at cortical depth vs tag-detuning severity."""
    from repro.experiments.common import power_up_probability

    plan = paper_plan().subset(config.n_antennas)
    factory = HeadChannelFactory(
        HeadPhantom(), config.depth_m, config.n_antennas,
        plan.center_frequency_hz,
    )
    spec = miniature_tag_spec()
    obs = current_obs()

    def _point(severity: float) -> float:
        fault = None if severity == 0.0 else tag_detuning(severity)
        with obs.stage_span(
            "faults.point",
            trials=config.power_trials,
            metric="power_up_probability",
            fault_kind="tag_detuning",
            severity=severity,
        ):
            probability = power_up_probability(
                plan,
                factory,
                BRAIN,
                config.eirp_per_branch_w,
                spec,
                config.power_trials,
                seed=config.seed + 31,
                runner=runner,
                fault_plan=fault,
            )
        obs.metrics.counter("faults.campaign_points").inc()
        obs.metrics.counter("faults.campaign_trials").inc(config.power_trials)
        return probability

    with obs.tracer.span(
        "faults.campaign",
        metric="power_up_probability",
        fault_kind="tag_detuning",
        n_points=len(config.detuning_severities),
        n_trials=config.power_trials,
        workers=config.workers,
    ):
        baseline = _point(0.0)
        values = tuple(_point(s) for s in config.detuning_severities)
    return DegradationTable(
        metric="power_up_probability",
        fault_kind="tag_detuning",
        severities=tuple(float(s) for s in config.detuning_severities),
        values=values,
        baseline=baseline,
        n_trials=config.power_trials,
        seed=config.seed + 31,
    )


def run(config: DegradationConfig = DegradationConfig()) -> DegradationResult:
    """Run all four severity sweeps on one worker pool."""
    plan = paper_plan().subset(config.n_antennas)
    offsets = tuple(float(v) for v in plan.offsets_array())

    with TrialRunner(workers=config.workers) as runner:
        dropout = run_campaign(
            metric="peak_envelope",
            fault_kind="antenna_dropout",
            severities=[float(k) for k in config.dropout_counts],
            chunk_builder=peak_envelope_chunk_builder(
                _dropout_plan,
                offsets,
                config.duration_s,
                seed=config.seed,
                aligned=True,
            ),
            n_trials=config.peak_trials,
            seed=config.seed,
            runner=runner,
        )
        relock = run_campaign(
            metric="peak_envelope",
            fault_kind="pll_relock",
            severities=config.relock_severities,
            chunk_builder=peak_envelope_chunk_builder(
                _relock_plan,
                offsets,
                config.duration_s,
                seed=config.seed + 17,
            ),
            n_trials=config.peak_trials,
            seed=config.seed + 17,
            runner=runner,
        )
        detuning = _detuning_table(config, runner)
        corruption = run_campaign(
            metric="decode_success",
            fault_kind="bit_corruption",
            severities=config.corruption_severities,
            chunk_builder=decode_success_chunk_builder(
                _corruption_plan,
                PAYLOAD_BITS,
                config.samples_per_chip,
                seed=config.seed + 53,
            ),
            n_trials=config.decode_trials,
            seed=config.seed + 53,
            runner=runner,
            reduce="success_fraction",
        )
    return DegradationResult(
        dropout=dropout,
        relock=relock,
        detuning=detuning,
        corruption=corruption,
    )
