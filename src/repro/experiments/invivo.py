"""Section 6.2 -- in-vivo evaluation in a (simulated) Yorkshire pig.

Battery-free tags are placed gastrically (through a 3 cm incision into the
stomach) and subcutaneously; the 8-antenna beamformer sits 30-80 cm
lateral to the animal. Every placement is repeated with the tag removed,
re-placed, and re-oriented. Success is the Sec. 6.2 rule: preamble
correlation above 0.8 at the out-of-band reader.

Paper outcomes to reproduce:

* gastric + standard tag: communication in ~half the trials (3/6);
* gastric + miniature tag: no communication (antenna too small);
* subcutaneous: both tags work in every trial.
"""

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.mc import spawn_rngs
from repro.core.plan import paper_plan
from repro.em.media import FAT, GASTRIC_CONTENT, Medium
from repro.em.phantoms import SwinePhantom
from repro.experiments.report import Table
from repro.reader.link import IvnLink, LinkTrialResult
from repro.sensors.tags import miniature_tag_spec, standard_tag_spec

PLACEMENT_MEDIA: Dict[str, Medium] = {
    "gastric": GASTRIC_CONTENT,
    "subcutaneous": FAT,
}


@dataclass(frozen=True)
class InVivoConfig:
    """Swine-trial parameters.

    Attributes:
        n_antennas: Beamformer size used at the animal (8 in the paper).
        n_trials: Placements per (location, tag) pair (paper: >= 3, 6 for
            the gastric standard-tag case).
        eirp_per_branch_w: Radiated EIRP per branch (the Fig. 13
            calibration lands at ~6 W).
        seed: Experiment seed.
    """

    n_antennas: int = 8
    n_trials: int = 6
    eirp_per_branch_w: float = 6.0
    seed: int = 62

    @classmethod
    def fast(cls) -> "InVivoConfig":
        return cls(n_trials=4)


@dataclass
class InVivoResult:
    """Success counts per (placement, tag) plus per-trial details."""

    counts: Dict[Tuple[str, str], Tuple[int, int]]
    trials: Dict[Tuple[str, str], List[LinkTrialResult]]

    def table(self) -> Table:
        table = Table(
            title="Sec. 6.2 -- in-vivo swine results (success = correlation > 0.8)",
            headers=(
                "placement",
                "tag",
                "successes",
                "trials",
                "powered",
                "median correlation",
            ),
        )
        for (placement, tag), (successes, total) in self.counts.items():
            results = self.trials[(placement, tag)]
            powered = sum(1 for r in results if r.powered)
            correlations = [r.correlation for r in results]
            table.add_row(
                placement,
                tag,
                successes,
                total,
                powered,
                float(np.median(correlations)),
            )
        return table

    def success_rate(self, placement: str, tag: str) -> float:
        successes, total = self.counts[(placement, tag)]
        return successes / total


def run(config: InVivoConfig = InVivoConfig()) -> InVivoResult:
    """Run all four (placement, tag) combinations."""
    plan = paper_plan().subset(config.n_antennas)
    phantom = SwinePhantom()
    specs = {"standard": standard_tag_spec(), "miniature": miniature_tag_spec()}
    counts: Dict[Tuple[str, str], Tuple[int, int]] = {}
    trials: Dict[Tuple[str, str], List[LinkTrialResult]] = {}
    for placement, medium in PLACEMENT_MEDIA.items():
        for tag_name, spec in specs.items():
            link = IvnLink(
                plan, spec, eirp_per_branch_w=config.eirp_per_branch_w
            )
            results: List[LinkTrialResult] = []
            # crc32, not hash(): builtin str hashing is randomized per
            # process (PYTHONHASHSEED), which made the table differ
            # between runs.
            cell = zlib.crc32(f"{placement}/{tag_name}".encode("utf-8"))
            seed = config.seed + cell % 100_000
            for rng in spawn_rngs(seed, config.n_trials):
                channel = phantom.channel(
                    placement, config.n_antennas, plan.center_frequency_hz, rng
                )
                results.append(link.run_trial(channel, medium, rng))
            successes = sum(1 for r in results if r.success)
            counts[(placement, tag_name)] = (successes, config.n_trials)
            trials[(placement, tag_name)] = results
    return InVivoResult(counts=counts, trials=trials)


@dataclass
class WaveformTrace:
    """A Fig. 15-style captured waveform with its decoded bits."""

    waveform: np.ndarray
    bits: Tuple[int, ...]
    correlation: float
    placement: str
    tag: str


def capture_trace(
    placement: str = "gastric",
    tag: str = "standard",
    config: InVivoConfig = InVivoConfig(),
    max_attempts: int = 20,
) -> Optional[WaveformTrace]:
    """Reproduce Fig. 15: one decoded time-domain response from the swine.

    Retries placements until a trial decodes (or gives up), then returns
    the averaged reader capture and the decoded bits.
    """
    plan = paper_plan().subset(config.n_antennas)
    phantom = SwinePhantom()
    spec = standard_tag_spec() if tag == "standard" else miniature_tag_spec()
    medium = PLACEMENT_MEDIA[placement]
    link = IvnLink(plan, spec, eirp_per_branch_w=config.eirp_per_branch_w)
    for rng in spawn_rngs(config.seed + 999, max_attempts):
        channel = phantom.channel(
            placement, config.n_antennas, plan.center_frequency_hz, rng
        )
        result = link.run_trial(channel, medium, rng)
        if result.success and result.decode is not None:
            return WaveformTrace(
                waveform=result.capture_waveform,
                bits=result.decode.bits,
                correlation=result.correlation,
                placement=placement,
                tag=tag,
            )
    return None
