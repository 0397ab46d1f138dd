"""Extension experiment: wake-up latency vs depth (Sec. 2.3's duty cycle).

Near the threshold, a sensor does not wake instantly: it "accumulate[s]
sufficient energy before communication or actuation" (Sec. 2.3), charging
its storage capacitor a little on every envelope peak. This experiment
runs the time-domain rectifier + power-management model over repeated CIB
periods and reports how long a sensor at each depth needs before its
first response -- the latency cost of operating near the edge of the
power-up region.

The sweep fans :func:`repro.runtime.engine.wakeup_latency_chunk` across a
:class:`~repro.runtime.runner.TrialRunner` (all depths' trials in
``(rows, T)`` blocks through the vectorized rectifier kernel); its rows
are pinned bit for bit to the legacy per-trial loop in
``tests/reference/``.
"""

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from repro.constants import TANK_STANDOFF_RANGE_M
from repro.core.plan import paper_plan
from repro.em.media import WATER
from repro.em.phantoms import WaterTankPhantom
from repro.experiments.common import TankChannelFactory
from repro.experiments.report import Table
from repro.faults.plan import FaultPlan
from repro.runtime import engine as engine_mod
from repro.runtime.adaptive import (
    AdaptiveConfig,
    ProportionTracker,
    adaptive_map_chunks,
)
from repro.runtime.runner import TrialRunner
from repro.sensors.tags import standard_tag_spec


@dataclass(frozen=True)
class WakeupConfig:
    """Latency-sweep parameters.

    Attributes:
        depths_m: Water depths swept.
        n_antennas: Beamformer size.
        eirp_per_branch_w: Radiated EIRP per branch.
        n_trials: Channel draws per depth.
        max_periods: Charging budget (seconds of CIB operation).
        envelope_rate_hz: Envelope sampling rate for the rectifier sim.
        seed: Experiment seed.
        workers: Worker processes for the batched path.
        fault_plan: Optional fault plan perturbing each trial's carriers
            and harvested voltage; an empty plan matches None bit for bit.
        adaptive: Optional streaming-allocation policy. Each depth runs
            batches until the Wilson CI on its wake fraction meets the
            target. Note the per-depth seeding makes trial streams depend
            only on the depth, so adaptive trials are bitwise prefixes of
            the fixed run's -- except under a ``fault_plan``, whose trial
            keys become depth-local rather than sweep-global.
    """

    depths_m: Tuple[float, ...] = (0.05, 0.10, 0.15, 0.20, 0.24)
    n_antennas: int = 8
    eirp_per_branch_w: float = 6.0
    n_trials: int = 6
    max_periods: int = 5
    envelope_rate_hz: float = 20e3
    seed: int = 52
    workers: int = 1
    fault_plan: Optional[FaultPlan] = None
    adaptive: Optional[AdaptiveConfig] = None

    @classmethod
    def fast(cls) -> "WakeupConfig":
        return cls(depths_m=(0.05, 0.15, 0.24), n_trials=4, max_periods=3)


@dataclass
class WakeupResult:
    """Median wake-up latency (s) per depth; None = never woke."""

    rows: List[Tuple[float, Optional[float], float]]

    def table(self) -> Table:
        table = Table(
            title=(
                "Extension -- wake-up latency vs depth in water "
                "(8-antenna CIB, storage-capacitor dynamics)"
            ),
            headers=("depth (cm)", "median latency (s)", "wake fraction"),
        )
        for depth, latency, fraction in self.rows:
            table.add_row(
                depth * 100.0,
                "never" if latency is None else latency,
                fraction,
            )
        return table

    def latency_at(self, depth_m: float) -> Optional[float]:
        for depth, latency, _ in self.rows:
            if depth == depth_m:
                return latency
        raise KeyError(f"depth {depth_m} not in the sweep")


def _tank_factory(
    depth_m: float, n_antennas: int, center_frequency_hz: float
) -> TankChannelFactory:
    """The experiment's water-tank channel factory at one depth."""
    tank = WaterTankPhantom(standoff_m=TANK_STANDOFF_RANGE_M)
    return TankChannelFactory(tank, n_antennas, depth_m, center_frequency_hz)


def _rows_from_latencies(
    config: WakeupConfig, latencies: np.ndarray
) -> List[Tuple[float, Optional[float], float]]:
    """Fold a flat (depth-major) latency vector into result rows."""
    rows: List[Tuple[float, Optional[float], float]] = []
    for depth_index, depth in enumerate(config.depths_m):
        block = latencies[
            depth_index * config.n_trials : (depth_index + 1) * config.n_trials
        ]
        woke = block[~np.isnan(block)]
        fraction = woke.size / block.size
        median = float(np.median(woke)) if woke.size else None
        rows.append((depth, median, fraction))
    return rows


def _chunk_fn(
    config: WakeupConfig, plan, depths_m: Tuple[float, ...], n_trials: int
):
    """The sweep's chunk function over ``depths_m``, ``n_trials`` each."""
    return partial(
        engine_mod.wakeup_latency_chunk,
        plan=plan,
        depths_m=tuple(depths_m),
        n_trials_per_depth=n_trials,
        channel_factory=partial(
            _tank_factory,
            n_antennas=config.n_antennas,
            center_frequency_hz=plan.center_frequency_hz,
        ),
        eirp_per_branch_w=config.eirp_per_branch_w,
        tag_spec=standard_tag_spec(),
        medium_at_tag=WATER,
        envelope_rate_hz=config.envelope_rate_hz,
        max_periods=config.max_periods,
        seed=config.seed,
        fault_plan=config.fault_plan,
    )


def _adaptive_rows(
    config: WakeupConfig, plan, runner: TrialRunner
) -> List[Tuple[float, Optional[float], float]]:
    """Per-depth streaming allocation: stop when the wake CI is tight.

    Each depth gets its own allocator pass over a single-depth chunk
    function. The per-depth seeding (``seed + int(depth * 1e4)``) makes a
    depth's trial stream independent of the other depths, so the trials a
    depth runs are the bitwise prefix of the fixed sweep's block for that
    depth.
    """
    adaptive = config.adaptive
    budget = adaptive.budget(config.n_trials)
    rows: List[Tuple[float, Optional[float], float]] = []
    for depth in config.depths_m:
        fn = _chunk_fn(config, plan, (depth,), budget)
        tracker = ProportionTracker(adaptive.confidence_z)

        def absorb(part, count, tracker=tracker):
            tracker.add(int(np.count_nonzero(~np.isnan(part))), count)
            return tracker.interval()

        parts, _ = adaptive_map_chunks(
            runner,
            fn,
            config.n_trials,
            adaptive,
            absorb,
            label="wakeup.chunk",
            point=f"wakeup@{depth * 100:.0f}cm",
        )
        block = np.concatenate(parts)
        woke = block[~np.isnan(block)]
        median = float(np.median(woke)) if woke.size else None
        rows.append((depth, median, woke.size / block.size))
    return rows


def run(config: WakeupConfig = WakeupConfig()) -> WakeupResult:
    plan = paper_plan().subset(config.n_antennas)
    with TrialRunner(workers=config.workers) as runner:
        if config.adaptive is not None and config.adaptive.enabled:
            return WakeupResult(rows=_adaptive_rows(config, plan, runner))
        chunks = runner.map_chunks(
            _chunk_fn(config, plan, config.depths_m, config.n_trials),
            len(config.depths_m) * config.n_trials,
            label="wakeup.chunk",
        )
    return WakeupResult(
        rows=_rows_from_latencies(config, np.concatenate(chunks))
    )
