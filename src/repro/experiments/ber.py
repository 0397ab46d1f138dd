"""Extension experiment: uplink bit-error rate vs SNR.

Validates the backscatter demodulators the link relies on: FM0 (the
paper's uplink) and the Miller-M fallbacks a Query can request. Expected
shapes: BER falls monotonically with SNR; higher Miller orders trade
airtime for robustness (lower BER at equal per-sample SNR); and the
Sec. 5b coherent averaging moves an operating point up the curve by
10 log10(M) dB.
"""

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.experiments.report import Table
from repro.kernels import ber_block
from repro.obs.context import current_obs
from repro.runtime.adaptive import (
    AdaptiveConfig,
    ProportionTracker,
    adaptive_map_chunks,
    worst_interval,
)
from repro.runtime.runner import TrialRunner


@dataclass(frozen=True)
class BerConfig:
    """BER-sweep parameters.

    Attributes:
        snr_db_points: Per-sample SNR points (amplitude^2 / noise power).
        n_words: 16-bit words simulated per point.
        samples_per_chip: FM0 oversampling.
        miller_orders: Miller-M schemes swept alongside FM0.
        averaging_periods: Extra curve: FM0 with M-period averaging.
        seed: Experiment seed.
        workers: Worker processes for the per-word chunks, each counted
            by the block-decision kernel :func:`repro.kernels.ber_block`.
        adaptive: Optional streaming-allocation policy. Each SNR point
            streams word batches until the Wilson CI on *every* scheme's
            BER meets the target (the allocator judges the loosest
            scheme's interval each batch).
    """

    snr_db_points: Tuple[float, ...] = (-12.0, -9.0, -6.0, -3.0, 0.0, 3.0)
    n_words: int = 60
    samples_per_chip: int = 10
    miller_orders: Tuple[int, ...] = (2, 8)
    averaging_periods: int = 10
    seed: int = 54
    workers: int = 1
    adaptive: Optional[AdaptiveConfig] = None

    @classmethod
    def fast(cls) -> "BerConfig":
        return cls(snr_db_points=(-9.0, -3.0, 3.0), n_words=25)


@dataclass
class BerResult:
    """BER per (scheme, SNR)."""

    curves: Dict[str, List[Tuple[float, float]]]

    def table(self) -> Table:
        schemes = sorted(self.curves)
        snrs = [snr for snr, _ in self.curves[schemes[0]]]
        table = Table(
            title="Extension -- uplink BER vs per-sample SNR",
            headers=("SNR (dB)",) + tuple(schemes),
        )
        for index, snr in enumerate(snrs):
            table.add_row(
                snr, *(self.curves[s][index][1] for s in schemes)
            )
        return table

    def ber(self, scheme: str, snr_db: float) -> float:
        for snr, value in self.curves[scheme]:
            if snr == snr_db:
                return value
        raise KeyError(f"{scheme} has no point at {snr_db} dB")


def run(config: BerConfig = BerConfig()) -> BerResult:
    curves: Dict[str, List[Tuple[float, float]]] = {}
    schemes = (
        ["FM0"]
        + [f"Miller-{m}" for m in config.miller_orders]
        + [f"FM0 avg x{config.averaging_periods}"]
    )
    for scheme in schemes:
        curves[scheme] = []

    streaming = config.adaptive is not None and config.adaptive.enabled
    with TrialRunner(workers=config.workers) as runner:
        for snr_db in config.snr_db_points:
            noise_std = float(10.0 ** (-snr_db / 20.0))  # signal amplitude = 1
            fn = partial(
                ber_block,
                seed=config.seed + abs(int(snr_db * 10)) * 2 + (snr_db < 0),
                noise_std=noise_std,
                samples_per_chip=config.samples_per_chip,
                miller_orders=config.miller_orders,
                averaging_periods=config.averaging_periods,
            )
            with current_obs().stage_span(
                "ber.words", trials=config.n_words, snr_db=snr_db
            ):
                if streaming:
                    trackers = {
                        scheme: ProportionTracker(config.adaptive.confidence_z)
                        for scheme in schemes
                    }

                    def absorb(part, count, trackers=trackers):
                        for scheme, errors in part.items():
                            trackers[scheme].add(errors, count * 16)
                        return worst_interval(
                            [t.interval() for t in trackers.values()],
                            config.adaptive,
                        )

                    chunks, outcome = adaptive_map_chunks(
                        runner,
                        fn,
                        config.n_words,
                        config.adaptive,
                        absorb,
                        point=f"ber@{snr_db:g}dB",
                    )
                    total_bits = outcome.trials * 16
                else:
                    chunks = runner.map_chunks(fn, config.n_words)
                    total_bits = config.n_words * 16
            errors = {scheme: 0 for scheme in schemes}
            for chunk in chunks:
                for scheme, count in chunk.items():
                    errors[scheme] += count
            for scheme in schemes:
                curves[scheme].append((snr_db, errors[scheme] / total_bits))
    return BerResult(curves=curves)
