"""Streaming adaptive trial allocation with online confidence intervals.

Every Section-6 figure is a sweep of Monte-Carlo points, and a fixed
trial count spends the same budget on every point even though points deep
inside a threshold regime (power-up probability near 0 or 1, BER near 0)
converge almost immediately. The allocator here requests trials in
successive batches per sweep point, folds each batch into online
sufficient statistics (:class:`~repro.analysis.stats.OnlineMoments` for
means, success/trial counts with Wilson intervals for proportions), and
stops the point as soon as its confidence half-width meets the configured
target -- subject to ``min_trials`` / ``max_trials`` bounds.

Determinism contract
--------------------

Running a point adaptively to ``n`` trials is **bitwise identical** to a
fixed ``n``-trial run, for any batch schedule and any worker count. This
falls out of two mechanical facts:

1. Chunk functions derive per-trial generators from
   ``SeedSequence(seed).spawn(n_trials)[start:start + count]``, and
   SeedSequence children are keyed by their absolute spawn index -- child
   ``i`` is the same object whether 10 or 10,000 children are spawned.
   The allocator binds the point's *budget* as the chunk function's
   ``n_trials`` and always consumes a prefix ``[0, n)`` of absolute
   indices, so every trial's stream matches the fixed-count run's.
2. :meth:`~repro.runtime.runner.TrialRunner.map_range` partitions each
   batch into contiguous spans exactly as ``map_chunks`` would partition
   the whole range, so the chunk functions see the same ``(start,
   count)`` arithmetic either way.

The *stopping decision* is a deterministic function of the batch schedule
and the trial results, so the number of trials a point runs is itself
reproducible -- independent of worker count, which only changes how a
batch is partitioned, never what it computes.

The estimator merges (count/mean/M2) accumulate in batch order; they feed
only the stop decision, never the returned samples, so their
floating-point roundoff cannot perturb results.
"""

import math
from dataclasses import asdict, dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.analysis.stats import (
    DEFAULT_Z,
    OnlineMoments,
    wilson_half_width,
)
from repro.hashing import stable_digest
from repro.obs.context import current_obs
from repro.runtime.runner import TrialRunner

STOP_CI_MET = "ci_met"
"""Stop reason: the point's CI half-width met the configured target."""

STOP_MAX_TRIALS = "max_trials"
"""Stop reason: the point exhausted its trial budget."""


@dataclass(frozen=True)
class AdaptiveConfig:
    """Streaming-allocation policy for one run's sweep points.

    Attributes:
        enabled: Master switch; a disabled config is treated as absent,
            which keeps the drivers' default path byte-identical.
        ci_target: Absolute confidence half-width target, in the units of
            the tracked statistic (gain, probability, BER, ...).
        ci_relative: Relative half-width target, as a fraction of the
            current estimate's magnitude. When both targets are set the
            *looser* one applies ("absolute or relative").
        confidence_z: Two-sided normal quantile of the interval (1.96 =
            95%).
        min_trials: Trials every point runs before the stop rule is
            consulted (also the first batch's size). Guards against
            stopping on a fluke of the first few draws.
        batch_trials: Trials requested per subsequent batch.
        max_trials: Per-point trial budget; ``None`` uses the driver's
            configured trial count. With no CI target set, every point
            runs to this budget -- which is exactly the fixed-count run.
    """

    enabled: bool = True
    ci_target: Optional[float] = None
    ci_relative: Optional[float] = None
    confidence_z: float = DEFAULT_Z
    min_trials: int = 32
    batch_trials: int = 32
    max_trials: Optional[int] = None

    def __post_init__(self):
        # NaN and infinity pass every range check below, so rule them out
        # first; trial counts must also be whole numbers.
        for name in ("min_trials", "batch_trials", "max_trials"):
            value = getattr(self, name)
            if value is not None and not (
                math.isfinite(value) and value == int(value)
            ):
                raise ValueError(f"{name} must be an integer, got {value}")
        for name in ("ci_target", "ci_relative", "confidence_z"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.min_trials < 1:
            raise ValueError(f"min_trials must be >= 1, got {self.min_trials}")
        if self.batch_trials < 1:
            raise ValueError(
                f"batch_trials must be >= 1, got {self.batch_trials}"
            )
        if self.max_trials is not None and self.max_trials < 1:
            raise ValueError(
                f"max_trials must be >= 1, got {self.max_trials}"
            )
        if self.ci_target is not None and self.ci_target <= 0:
            raise ValueError(
                f"ci_target must be positive, got {self.ci_target}"
            )
        if self.ci_relative is not None and self.ci_relative <= 0:
            raise ValueError(
                f"ci_relative must be positive, got {self.ci_relative}"
            )
        if self.confidence_z <= 0:
            raise ValueError(
                f"confidence_z must be positive, got {self.confidence_z}"
            )

    def budget(self, n_trials: int) -> int:
        """The per-point trial budget given the driver's default count."""
        if n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {n_trials}")
        return self.max_trials if self.max_trials is not None else n_trials

    def target_for(self, estimate: float) -> Optional[float]:
        """The half-width this estimate must reach, or None if untargeted."""
        targets = []
        if self.ci_target is not None:
            targets.append(self.ci_target)
        if self.ci_relative is not None and math.isfinite(estimate):
            targets.append(self.ci_relative * abs(estimate))
        return max(targets) if targets else None

    def met(self, estimate: float, half_width: float) -> bool:
        """Whether ``(estimate, half_width)`` satisfies the stop rule."""
        target = self.target_for(estimate)
        return (
            target is not None
            and math.isfinite(half_width)
            and half_width <= target
        )

    def cache_token(self) -> str:
        """Stable short hash of the policy, for plan-cache keying."""
        return stable_digest(asdict(self), 16)


@dataclass(frozen=True)
class AdaptiveOutcome:
    """Per-point allocation record: what ran and why it stopped."""

    point: str
    budget: int
    trials: int
    batches: int
    stop: str
    estimate: float
    half_width: float

    @property
    def trials_saved(self) -> int:
        """Budgeted trials the stop rule made unnecessary."""
        return self.budget - self.trials


class MeanTracker:
    """Normal-approximation interval over a streamed sample mean."""

    def __init__(self, z: float = DEFAULT_Z):
        self.z = z
        self.moments = OnlineMoments()

    def add(self, samples: Sequence[float]) -> None:
        self.moments.add(samples)

    def interval(self) -> Tuple[float, float]:
        """Current ``(estimate, half_width)``."""
        if self.moments.count == 0:
            return (float("nan"), float("inf"))
        return (self.moments.mean, self.moments.half_width(self.z))


class ProportionTracker:
    """Wilson interval over streamed success/trial counts."""

    def __init__(self, z: float = DEFAULT_Z):
        self.z = z
        self.successes = 0
        self.trials = 0

    def add(self, successes: int, trials: int) -> None:
        if trials < 0 or not 0 <= successes <= max(trials, 0):
            raise ValueError(
                f"invalid batch: {successes} successes in {trials} trials"
            )
        self.successes += int(successes)
        self.trials += int(trials)

    def interval(self) -> Tuple[float, float]:
        """Current ``(estimate, half_width)``."""
        if self.trials == 0:
            return (float("nan"), float("inf"))
        return (
            self.successes / self.trials,
            wilson_half_width(self.successes, self.trials, self.z),
        )


def worst_interval(
    intervals: Sequence[Tuple[float, float]], config: AdaptiveConfig
) -> Tuple[float, float]:
    """The interval farthest from meeting ``config``'s stop rule.

    For points tracking several statistics at once (the BER sweep tracks
    one proportion per coding scheme), the allocator should continue
    until *every* interval is tight. Returning the interval with the
    largest slack (half-width minus its own target) makes
    :meth:`AdaptiveConfig.met` on the result equivalent to the
    all-intervals conjunction.
    """
    if not intervals:
        raise ValueError("need at least one interval")

    def slack(pair: Tuple[float, float]) -> float:
        estimate, half_width = pair
        if not math.isfinite(half_width):
            return float("inf")
        target = config.target_for(estimate)
        if target is None:
            return half_width
        return half_width - target

    return max(intervals, key=slack)


def adaptive_map_chunks(
    runner: TrialRunner,
    fn: Callable[[int, int], Any],
    n_trials: int,
    config: AdaptiveConfig,
    absorb: Callable[[Any, int], Tuple[float, float]],
    label: str = "runner.chunk",
    point: str = "point",
) -> Tuple[List[Any], AdaptiveOutcome]:
    """Stream trial batches for one sweep point until its CI is tight.

    Args:
        runner: The trial runner to fan batches across (worker count does
            not affect results, only batch partitioning).
        fn: Chunk function ``fn(start, count)``. Its bound ``n_trials``
            must equal ``config.budget(n_trials)`` so absolute trial
            indices match a fixed run of that budget -- every driver in
            :mod:`repro.experiments.common` binds it that way.
        n_trials: The driver's default trial count (the budget when the
            config does not override ``max_trials``).
        config: Allocation policy.
        absorb: Callback ``absorb(chunk_result, chunk_trials)`` folding
            one chunk into the caller's sufficient statistics and
            returning the current ``(estimate, half_width)`` pair the
            stop rule should judge.
        label: Trace-span label for the underlying chunks.
        point: Human-readable sweep-point name for spans/outcomes.

    Returns:
        ``(chunk results in span order, AdaptiveOutcome)``. Concatenating
        the chunk results yields the exact prefix a fixed
        ``budget``-trial run would produce.
    """
    budget = config.budget(n_trials)
    obs = current_obs()
    parts: List[Any] = []
    done = 0
    batches = 0
    estimate = float("nan")
    half_width = float("inf")
    stop = STOP_MAX_TRIALS
    with obs.tracer.span(
        "adaptive.point", point=point, budget=budget
    ) as span:
        while done < budget:
            size = config.min_trials if done == 0 else config.batch_trials
            take = min(size, budget - done)
            batch_parts = runner.map_range(fn, done, done + take, label)
            for part, (_, count) in zip(
                batch_parts, runner.range_spans(done, done + take)
            ):
                estimate, half_width = absorb(part, count)
            parts.extend(batch_parts)
            done += take
            batches += 1
            if done >= config.min_trials and config.met(estimate, half_width):
                stop = STOP_CI_MET
                break
        span.attrs.update(
            trials=done,
            batches=batches,
            stop=stop,
            estimate=estimate,
            half_width=half_width,
        )
    metrics = obs.metrics
    metrics.counter("adaptive.points").inc()
    metrics.counter("adaptive.batches").inc(batches)
    metrics.counter("adaptive.trials_run").inc(done)
    metrics.counter("adaptive.trials_saved").inc(budget - done)
    metrics.counter(f"adaptive.stop.{stop}").inc()
    outcome = AdaptiveOutcome(
        point=point,
        budget=budget,
        trials=done,
        batches=batches,
        stop=stop,
        estimate=estimate,
        half_width=half_width,
    )
    return parts, outcome
