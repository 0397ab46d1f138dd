"""Shared measurement drivers for the Section 6 experiments.

The public drivers (:func:`measure_gain_trials`,
:func:`power_up_probability`, :func:`measure_strategy_gains`) run on the
batched :mod:`repro.runtime` engine. A
:class:`~repro.runtime.runner.TrialRunner` chunks the trials (optionally
across worker processes) and each chunk is evaluated in stacked
``(D, N)`` arrays. The caller owns the runner: an experiment opens one per
run and passes it to every call, so all of its maps share one worker pool;
``runner=None`` runs the trials in-process. The carrier offsets pick the
envelope tier -- the sparse-spectrum FFT for integer-bin plans, the direct
sum otherwise -- so no driver takes a tier argument. The original
one-trial-per-iteration loops live in ``tests/reference/`` as the oracles
the regression suite pins the engine to: the direct tier matches them bit
for bit at fixed seeds, the FFT tier to ~1e-13 relative.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

import numpy as np

from repro.core.baselines import TransmitterStrategy
from repro.core.plan import CarrierPlan
from repro.em.channel import BlindChannel
from repro.em.media import Medium
from repro.em.multipath import MultipathProfile
from repro.em.phantoms import WaterTankPhantom
from repro.faults.plan import FaultPlan
from repro.obs.context import current_obs
from repro.runtime import engine as engine_mod
from repro.runtime.adaptive import (
    AdaptiveConfig,
    AdaptiveOutcome,
    MeanTracker,
    ProportionTracker,
    adaptive_map_chunks,
)
from repro.runtime.runner import TrialRunner
from repro.sensors.tags import TagSpec

CAPTURE_DURATION_S = 2.0
"""The dedicated monitor USRP captures 2-second windows (Sec. 6.1.1)."""


@dataclass(frozen=True)
class GainSample:
    """Peak-power gains of one trial, all over the same channel draw.

    Attributes:
        cib_gain: CIB peak power over the single-antenna peak power.
        baseline_gain: Blind same-frequency N-antenna transmitter over the
            single-antenna reference.
    """

    cib_gain: float
    baseline_gain: float

    @property
    def ratio(self) -> float:
        """CIB over baseline -- the Fig. 12 quantity."""
        return self.cib_gain / self.baseline_gain


@dataclass(frozen=True)
class TankChannelFactory:
    """Picklable channel factory over a water-tank phantom.

    The process-pool runtime ships chunk functions to worker processes, so
    the experiment drivers use this dataclass instead of a lambda closing
    over the tank. Calling it matches
    ``tank.channel(n_antennas, depth_m, frequency_hz, ..., rng=rng)``.
    """

    tank: WaterTankPhantom
    n_antennas: int
    depth_m: float
    frequency_hz: float
    phase_mode: str = "random"
    multipath: Optional[MultipathProfile] = None
    orientation_gain: float = 1.0

    def __call__(self, rng: np.random.Generator) -> BlindChannel:
        return self.tank.channel(
            self.n_antennas,
            self.depth_m,
            self.frequency_hz,
            phase_mode=self.phase_mode,
            multipath=self.multipath,
            orientation_gain=self.orientation_gain,
            rng=rng,
        )

    def arc_channel(self) -> Optional[BlindChannel]:
        """The unjittered arc when a trial draws only its jitter and random
        phases (:func:`repro.runtime.engine.realize_trials`), else None."""
        channel = self(None)
        arc = self.tank.geometry == "arc" and channel.phase_mode == "random"
        return channel if arc and channel.multipath.mean_taps == 0 else None


def measure_gain_trials(
    channel_factory: Callable[[np.random.Generator], BlindChannel],
    plan: CarrierPlan,
    n_trials: int,
    seed: int,
    duration_s: float = CAPTURE_DURATION_S,
    include_baseline: bool = True,
    runner: Optional[TrialRunner] = None,
    fault_plan: Optional[FaultPlan] = None,
    adaptive: Optional[AdaptiveConfig] = None,
) -> List[GainSample]:
    """Run the Sec. 6.1.1 measurement loop on the batched runtime.

    Each trial re-places the receive antenna (a fresh channel from the
    factory), realizes the blind channel, and measures the peak power of
    CIB -- and optionally the blind N-antenna baseline -- against the
    single-antenna reference over a capture window.

    The CIB peaks take the FFT tier for integer-bin plans (within ~1e-13
    relative of the per-trial reference loop in ``tests/reference/``) and
    the direct tier otherwise (bit-identical to it); see
    :mod:`repro.runtime.engine`.

    Args:
        runner: Runner whose pool executes the chunks (``None`` runs them
            in-process); results are identical for any worker count and
            chunk size.
        fault_plan: Optional fault plan injected into the CIB side of
            every trial (empty/None is bit-identical to the healthy run).
        adaptive: Optional streaming-allocation policy. Trials stream in
            batches until the normal-approximation CI on the mean CIB
            gain meets the target; the returned samples are the exact
            bitwise prefix of the fixed ``budget``-trial run. ``None``
            (or a disabled config) is byte-identical to the fixed path.
    """
    if n_trials <= 0:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    if runner is None:
        runner = TrialRunner()
    streaming = adaptive is not None and adaptive.enabled
    fn = partial(
        engine_mod.measure_gain_chunk,
        channel_factory=channel_factory,
        plan=plan,
        seed=seed,
        duration_s=duration_s,
        include_baseline=include_baseline,
        fault_plan=fault_plan,
    )
    with current_obs().tracer.span(
        "experiment.measure_gain_trials",
        n_trials=n_trials,
        seed=seed,
        workers=runner.workers,
        adaptive=streaming,
    ):
        if streaming:
            tracker = MeanTracker(adaptive.confidence_z)

            def absorb(part, count):
                tracker.add(part[0])
                return tracker.interval()

            parts, _ = adaptive_map_chunks(
                runner,
                fn,
                n_trials,
                adaptive,
                absorb,
                point="measure_gain_trials",
            )
        else:
            parts = runner.map_chunks(fn, n_trials)
    cib_gains = np.concatenate([part[0] for part in parts])
    baseline_gains = np.concatenate([part[1] for part in parts])
    return [
        GainSample(cib_gain=float(cib), baseline_gain=float(base))
        for cib, base in zip(cib_gains, baseline_gains)
    ]


@dataclass(frozen=True)
class PowerUpTrials:
    """Power-up tally of one sweep point: successes over trials run.

    ``outcome`` carries the adaptive allocation record (``None`` on the
    fixed-count path), so callers can report trials saved and the
    achieved Wilson half-width alongside the probability.
    """

    successes: int
    trials: int
    outcome: Optional[AdaptiveOutcome] = None

    @property
    def probability(self) -> float:
        return self.successes / self.trials


def power_up_trials(
    plan: CarrierPlan,
    channel_factory: Callable[[np.random.Generator], BlindChannel],
    medium_at_tag: Medium,
    eirp_per_branch_w: float,
    tag_spec: TagSpec,
    n_trials: int,
    seed: int,
    runner: Optional[TrialRunner] = None,
    fault_plan: Optional[FaultPlan] = None,
    adaptive: Optional[AdaptiveConfig] = None,
) -> PowerUpTrials:
    """Power-up successes/trials of one sweep point (batched runtime).

    ``fault_plan`` injects carrier-plane faults and tag detuning into
    every trial; empty/None is bit-identical to the healthy run. With an
    ``adaptive`` config, trials stream in batches until the Wilson CI on
    the success rate meets the target; the successes counted are the
    exact bitwise prefix of the fixed ``budget``-trial run. ``runner``
    executes the chunks (``None``: in-process).
    """
    if n_trials <= 0:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    if runner is None:
        runner = TrialRunner()
    streaming = adaptive is not None and adaptive.enabled
    fn = partial(
        engine_mod.power_up_chunk,
        plan=plan,
        channel_factory=channel_factory,
        medium_at_tag=medium_at_tag,
        eirp_per_branch_w=eirp_per_branch_w,
        tag_spec=tag_spec,
        seed=seed,
        fault_plan=fault_plan,
    )
    with current_obs().tracer.span(
        "experiment.power_up_probability",
        n_trials=n_trials,
        seed=seed,
        workers=runner.workers,
        adaptive=streaming,
    ):
        if streaming:
            tracker = ProportionTracker(adaptive.confidence_z)

            def absorb(part, count):
                tracker.add(int(part), count)
                return tracker.interval()

            parts, outcome = adaptive_map_chunks(
                runner,
                fn,
                n_trials,
                adaptive,
                absorb,
                point="power_up_trials",
            )
            return PowerUpTrials(
                successes=int(sum(parts)),
                trials=outcome.trials,
                outcome=outcome,
            )
        successes = sum(runner.map_chunks(fn, n_trials))
    return PowerUpTrials(successes=int(successes), trials=n_trials)


def power_up_probability(
    plan: CarrierPlan,
    channel_factory: Callable[[np.random.Generator], BlindChannel],
    medium_at_tag: Medium,
    eirp_per_branch_w: float,
    tag_spec: TagSpec,
    n_trials: int,
    seed: int,
    runner: Optional[TrialRunner] = None,
    fault_plan: Optional[FaultPlan] = None,
    adaptive: Optional[AdaptiveConfig] = None,
) -> float:
    """Fraction of trials whose peak V_s clears the tag's minimum.

    Thin wrapper over :func:`power_up_trials` for callers that only need
    the rate.
    """
    return power_up_trials(
        plan,
        channel_factory,
        medium_at_tag,
        eirp_per_branch_w,
        tag_spec,
        n_trials,
        seed,
        runner=runner,
        fault_plan=fault_plan,
        adaptive=adaptive,
    ).probability


def measure_strategy_gains(
    channel_factory: Callable[[np.random.Generator], BlindChannel],
    strategy_factory: Callable[[BlindChannel], TransmitterStrategy],
    n_trials: int,
    seed: int,
    duration_s: float = CAPTURE_DURATION_S,
    runner: Optional[TrialRunner] = None,
) -> List[float]:
    """Peak power gain of an arbitrary strategy vs the single antenna.

    The strategy factory receives the channel so that channel-model-aware
    strategies (beamsteering) can extract the assumed geometric phases.
    Known strategy types are batched; unknown ones fall back to per-trial
    evaluation with identical random streams. ``runner`` executes the
    chunks (``None``: in-process).
    """
    if n_trials <= 0:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    if runner is None:
        runner = TrialRunner()
    fn = partial(
        engine_mod.strategy_gain_chunk,
        channel_factory=channel_factory,
        strategy_factory=strategy_factory,
        seed=seed,
        duration_s=duration_s,
    )
    with current_obs().tracer.span(
        "experiment.measure_strategy_gains",
        n_trials=n_trials,
        seed=seed,
        workers=runner.workers,
    ):
        parts = runner.map_chunks(fn, n_trials)
    return [float(gain) for gain in np.concatenate(parts)]
