"""Severity-sweep campaigns: fault plans in, degradation tables out.

:func:`run_campaign` evaluates one scalar metric (mean peak envelope,
power-up probability, decode success rate, ...) at a list of fault
severities plus a healthy baseline, fanning the Monte-Carlo trials of each
point across the caller's :class:`~repro.runtime.runner.TrialRunner`.
Because every chunk function re-derives its trial and fault randomness
from ``(seed, absolute trial index)``, a campaign's table is bit-identical
for any ``workers`` / ``chunk_size`` combination.

The output is a :class:`DegradationTable`: severities, absolute metric
values, and values relative to the healthy baseline -- the degradation
curve. Tables serialize to a versioned JSON dict
(:meth:`DegradationTable.to_json_dict`) that
:func:`validate_degradation_dict` checks, which is what the CI smoke job
asserts against.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.mc import spawn_rngs
from repro.core import waveform
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.gen2 import fm0
from repro.gen2.decoder import decode_fm0_response
from repro.obs.context import current_obs
from repro.runtime.runner import TrialRunner

DEGRADATION_SCHEMA_VERSION = 1
"""Version tag of the degradation-table JSON payload."""

REDUCERS = ("mean", "success_fraction")
"""How chunk results fold into one point value: ``"mean"`` concatenates
per-trial arrays and averages; ``"success_fraction"`` sums integer success
counts and divides by the trial count."""


@dataclass(frozen=True)
class DegradationTable:
    """One degradation curve: metric value vs fault severity.

    Attributes:
        metric: What was measured (e.g. ``"peak_envelope"``).
        fault_kind: Which fault was swept (a plan label).
        severities: Swept severity values, in sweep order.
        values: Absolute metric value at each severity.
        baseline: The healthy (empty-plan) metric value.
        n_trials: Monte-Carlo trials behind every point.
        seed: Base seed of the campaign.
    """

    metric: str
    fault_kind: str
    severities: Tuple[float, ...]
    values: Tuple[float, ...]
    baseline: float
    n_trials: int
    seed: int

    def __post_init__(self) -> None:
        if len(self.severities) != len(self.values):
            raise ValueError(
                f"{len(self.severities)} severities vs {len(self.values)} values"
            )

    def relative(self) -> Tuple[float, ...]:
        """Each value over the healthy baseline (nan when baseline is 0)."""
        if self.baseline == 0.0:
            return tuple(float("nan") for _ in self.values)
        return tuple(value / self.baseline for value in self.values)

    def table(self):
        """Render as a :class:`repro.experiments.report.Table`."""
        # Local import: report lives under repro.experiments, whose package
        # init imports modules that import this one.
        from repro.experiments.report import Table

        table = Table(
            title=f"Degradation: {self.metric} under {self.fault_kind} "
            f"({self.n_trials} trials/point)",
            headers=("severity", self.metric, "relative to healthy"),
        )
        for severity, value, rel in zip(
            self.severities, self.values, self.relative()
        ):
            table.add_row(f"{severity:g}", f"{value:.4g}", f"{rel:.4f}")
        return table

    def to_json_dict(self) -> dict:
        """Versioned JSON payload (the CI-validated schema)."""
        return {
            "schema_version": DEGRADATION_SCHEMA_VERSION,
            "metric": self.metric,
            "fault_kind": self.fault_kind,
            "n_trials": int(self.n_trials),
            "seed": int(self.seed),
            "baseline": float(self.baseline),
            "severities": [float(s) for s in self.severities],
            "values": [float(v) for v in self.values],
            "relative": [float(r) for r in self.relative()],
        }


def validate_degradation_dict(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid degradation table."""
    if not isinstance(payload, dict):
        raise ValueError(f"degradation payload must be a dict, got {type(payload)}")
    version = payload.get("schema_version")
    if version != DEGRADATION_SCHEMA_VERSION:
        raise ValueError(
            f"schema_version must be {DEGRADATION_SCHEMA_VERSION}, got {version}"
        )
    for key in ("metric", "fault_kind"):
        if not isinstance(payload.get(key), str) or not payload[key]:
            raise ValueError(f"{key} must be a non-empty string")
    for key in ("n_trials", "seed"):
        if not isinstance(payload.get(key), int):
            raise ValueError(f"{key} must be an integer")
    if payload["n_trials"] < 1:
        raise ValueError(f"n_trials must be >= 1, got {payload['n_trials']}")
    if not isinstance(payload.get("baseline"), (int, float)):
        raise ValueError("baseline must be a number")
    lengths = set()
    for key in ("severities", "values", "relative"):
        series = payload.get(key)
        if not isinstance(series, list) or not series:
            raise ValueError(f"{key} must be a non-empty list")
        if not all(isinstance(v, (int, float)) for v in series):
            raise ValueError(f"{key} entries must be numbers")
        lengths.add(len(series))
    if len(lengths) != 1:
        raise ValueError(
            f"severities/values/relative lengths differ: {sorted(lengths)}"
        )


def _reduce_parts(parts: List, reduce: str, n_trials: int) -> float:
    if reduce == "mean":
        return float(np.mean(np.concatenate([np.atleast_1d(p) for p in parts])))
    if reduce == "success_fraction":
        return float(sum(int(p) for p in parts)) / n_trials
    raise ValueError(f"reduce must be one of {REDUCERS}, got {reduce!r}")


def run_campaign(
    metric: str,
    fault_kind: str,
    severities: Sequence[float],
    chunk_builder: Callable[[float], Callable[[int, int], object]],
    n_trials: int,
    seed: int,
    runner: Optional[TrialRunner] = None,
    reduce: str = "mean",
) -> DegradationTable:
    """Sweep fault severity and measure degradation of one metric.

    Args:
        metric: Name of the measured quantity (table/schema label).
        fault_kind: Name of the swept fault (table/schema label).
        severities: Severity values to evaluate. The healthy baseline is
            always evaluated separately via ``chunk_builder(0.0)``, which
            must produce an empty (or no-op) fault plan at severity 0.
        chunk_builder: ``severity -> picklable chunk fn(start, count)``;
            the chunk fn must follow the runtime determinism contract
            (re-derive randomness from the absolute trial index).
        runner: Runner whose pool executes the chunks (``None`` runs them
            in-process).
        reduce: One of :data:`REDUCERS`.
    """
    if n_trials <= 0:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    if reduce not in REDUCERS:
        raise ValueError(f"reduce must be one of {REDUCERS}, got {reduce!r}")
    severities = tuple(float(s) for s in severities)
    if not severities:
        raise ValueError("need at least one severity")
    obs = current_obs()
    if runner is None:
        runner = TrialRunner()

    def _point(severity: float, label: str) -> float:
        fn = chunk_builder(severity)
        with obs.stage_span(
            "faults.point",
            trials=n_trials,
            metric=metric,
            fault_kind=fault_kind,
            severity=severity,
            point=label,
        ):
            parts = runner.map_chunks(fn, n_trials, label="faults.chunk")
        obs.metrics.counter("faults.campaign_points").inc()
        obs.metrics.counter("faults.campaign_trials").inc(n_trials)
        return _reduce_parts(parts, reduce, n_trials)

    with obs.tracer.span(
        "faults.campaign",
        metric=metric,
        fault_kind=fault_kind,
        n_points=len(severities),
        n_trials=n_trials,
        workers=runner.workers,
    ):
        baseline = _point(0.0, "baseline")
        values = tuple(
            _point(severity, "sweep") for severity in severities
        )
    return DegradationTable(
        metric=metric,
        fault_kind=fault_kind,
        severities=severities,
        values=values,
        baseline=baseline,
        n_trials=n_trials,
        seed=seed,
    )


# -- picklable campaign chunk functions ----------------------------------------
#
# Same (start, count)-first convention as repro.runtime.engine so the
# TrialRunner can call functools.partial-bound versions directly.


def peak_envelope_chunk(
    start: int,
    count: int,
    offsets_hz: Tuple[float, ...],
    amplitudes: Optional[Tuple[float, ...]],
    duration_s: float,
    fault_plan: FaultPlan,
    seed: int,
    aligned: bool = False,
) -> np.ndarray:
    """Per-trial CIB envelope peaks under a fault plan (unit channel).

    Each trial draws uniform oscillator phases (the blind-channel betas),
    applies the plan's carrier-plane faults, and evaluates the exact peak
    envelope.

    With ``aligned=True`` the betas are zero instead: the trial sits at the
    constructive-alignment instant the CIB envelope sweeps through once per
    beat period, where the peak is exactly the coherent amplitude sum. With
    unit amplitudes the healthy peak is then exactly N and dropping k
    antennas lands at exactly N - k -- the N-1 law with no phase-sampling
    bias. (Blind random betas still consume the same RNG draws so the
    fault realizations match the unaligned sweep.)
    """
    obs = current_obs()
    offsets = np.asarray(offsets_hz, dtype=float)
    amps = (
        np.ones(offsets.size)
        if amplitudes is None
        else np.asarray(amplitudes, dtype=float)
    )
    injector = FaultInjector(fault_plan, seed)
    peaks = np.empty(count)
    with obs.stage_span("faults.peak_envelope", trials=count, start=start):
        rngs = spawn_rngs(seed, count, start)
        for index, rng in enumerate(rngs):
            betas = rng.uniform(0.0, 2.0 * math.pi, size=offsets.size)
            if aligned:
                betas = np.zeros(offsets.size)
            p = injector.perturb_trial(start + index, offsets, betas, amps)
            peak, _ = waveform.peak_envelope(
                p.offsets_hz, p.betas, duration_s, p.amplitudes
            )
            peaks[index] = peak
    obs.metrics.counter("trials.processed").inc(count)
    return peaks


def decode_success_chunk(
    start: int,
    count: int,
    payload_bits: Tuple[int, ...],
    samples_per_chip: int,
    fault_plan: FaultPlan,
    seed: int,
) -> int:
    """Successful FM0 decodes under link-plane corruption.

    Each trial encodes ``payload_bits`` (preamble + dummy), corrupts the
    sampled waveform through the injector, and decodes with the Sec. 6.2
    correlation rule; success requires both the threshold and an exact
    payload match.
    """
    obs = current_obs()
    chips = fm0.encode_chips(payload_bits, include_preamble=True, dummy_bit=True)
    clean = fm0.chips_to_waveform(chips, samples_per_chip)
    injector = FaultInjector(fault_plan, seed)
    successes = 0
    with obs.stage_span("faults.decode_success", trials=count, start=start):
        for index in range(count):
            result = decode_fm0_response(
                clean,
                n_bits=len(payload_bits),
                samples_per_chip=samples_per_chip,
                faults=injector,
                trial_index=start + index,
            )
            if result.success and result.bits == tuple(payload_bits):
                successes += 1
    obs.metrics.counter("trials.processed").inc(count)
    return successes


def peak_envelope_chunk_builder(
    plan_factory: Callable[[float], FaultPlan],
    offsets_hz: Sequence[float],
    duration_s: float,
    seed: int,
    amplitudes: Optional[Sequence[float]] = None,
    aligned: bool = False,
) -> Callable[[float], Callable[[int, int], np.ndarray]]:
    """A :func:`run_campaign` chunk builder over :func:`peak_envelope_chunk`."""

    def build(severity: float) -> Callable[[int, int], np.ndarray]:
        return partial(
            peak_envelope_chunk,
            offsets_hz=tuple(float(v) for v in offsets_hz),
            amplitudes=(
                None
                if amplitudes is None
                else tuple(float(v) for v in amplitudes)
            ),
            duration_s=duration_s,
            fault_plan=plan_factory(severity),
            seed=seed,
            aligned=aligned,
        )

    return build


def decode_success_chunk_builder(
    plan_factory: Callable[[float], FaultPlan],
    payload_bits: Sequence[int],
    samples_per_chip: int,
    seed: int,
) -> Callable[[float], Callable[[int, int], int]]:
    """A :func:`run_campaign` chunk builder over :func:`decode_success_chunk`."""

    def build(severity: float) -> Callable[[int, int], int]:
        return partial(
            decode_success_chunk,
            payload_bits=tuple(int(b) for b in payload_bits),
            samples_per_chip=int(samples_per_chip),
            fault_plan=plan_factory(severity),
            seed=seed,
        )

    return build
