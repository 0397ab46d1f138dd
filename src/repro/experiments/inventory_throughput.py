"""Extension experiment: Gen2 inventory throughput over the CIB link.

Section 3.7 argues IVN "can seamlessly scale to multiple in-vivo sensors"
using standard backscatter arbitration. This experiment quantifies the
cost: read rate (tags/second of airtime) versus population size, with the
Q-adaptive slotted-ALOHA rounds and the real Gen2 airtimes (PIE downlink
at Tari, FM0 uplink at the BLF).

The rounds themselves run on the fleet resolver
(:func:`repro.fleet.collision.run_inventory` in its ideal-arbitration
mode, ``capture=None``), which emulates the per-tag state machines with
identical randomness. The original
:class:`~repro.gen2.inventory.InventoryRound` loop is kept verbatim in
``tests/reference/``; the regression suite pins ``run`` to it row for
row, so the port cannot drift from the legacy numbers.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.constants import DEFAULT_BACKSCATTER_LINK_FREQUENCY_HZ
from repro.experiments.report import Table
from repro.fleet.campaign import shard_airtime_s
from repro.fleet.collision import run_inventory
from repro.fleet.population import TagSet
from repro.gen2.fm0 import symbol_duration_s
from repro.gen2.pie import PIETiming

#: Gen2 link turnaround gaps (T1 + T2), order of a few hundred us total.
TURNAROUND_S = 300e-6


@dataclass(frozen=True)
class ThroughputConfig:
    """Inventory-throughput sweep parameters."""

    populations: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    initial_q: int = 4
    max_rounds: int = 64
    blf_hz: float = DEFAULT_BACKSCATTER_LINK_FREQUENCY_HZ
    seed: int = 51

    @classmethod
    def fast(cls) -> "ThroughputConfig":
        return cls(populations=(1, 4, 16))


@dataclass
class ThroughputResult:
    rows: List[Tuple[int, int, float, float, float]]

    def table(self) -> Table:
        table = Table(
            title=(
                "Extension -- Gen2 inventory throughput over the CIB link "
                "(Q-adaptive slotted ALOHA)"
            ),
            headers=(
                "tags",
                "slots used",
                "airtime (ms)",
                "tags/s",
                "slot efficiency",
            ),
        )
        for row in self.rows:
            table.add_row(*row)
        return table

    def rates(self) -> List[float]:
        return [row[3] for row in self.rows]


class AirtimeModel:
    """Airtime of the Gen2 primitives at the configured rates."""

    def __init__(self, timing: PIETiming = PIETiming(), blf_hz: float = 40e3):
        self.timing = timing
        self.blf_hz = float(blf_hz)

    def downlink_s(self, bits: int, preamble: bool) -> float:
        # Average PIE symbol is (data0 + data1) / 2.
        average_symbol = (self.timing.data0_s + self.timing.data1_s) / 2.0
        overhead = self.timing.delimiter_s + self.timing.data0_s + (
            self.timing.rtcal_s
        )
        if preamble:
            overhead += self.timing.trcal_s
        return overhead + bits * average_symbol

    def uplink_s(self, bits: int) -> float:
        # FM0: preamble (6 symbols) + payload + dummy, one symbol per bit.
        return (6 + bits + 1) * symbol_duration_s(self.blf_hz)

    def slot_s(self, outcome: str) -> float:
        """Airtime of one slot by outcome kind."""
        base = self.downlink_s(4, preamble=False) + TURNAROUND_S
        if outcome == "empty":
            return base
        base += self.uplink_s(16)  # RN16
        if outcome == "collision":
            return base + TURNAROUND_S
        # Singleton: ACK + EPC reply.
        base += self.downlink_s(18, preamble=False) + TURNAROUND_S
        base += self.uplink_s(128)  # PC + EPC + CRC16
        return base + TURNAROUND_S

    def query_s(self) -> float:
        return self.downlink_s(22, preamble=True) + TURNAROUND_S


def _population_tag_set(population: int, population_seq) -> TagSet:
    """Idealized tags from the legacy seed tree (amplitudes 1, all powered).

    One child stream per tag plus one for the EPCs; spawning keeps the
    streams statistically independent, and keeping the legacy spawn
    layout keeps every draw identical to the InventoryRound reference.
    """
    children = population_seq.spawn(population + 1)
    epc_rng = np.random.default_rng(children[0])
    epc_bits = np.empty((population, 96), dtype=int)
    mac_rngs = []
    for index in range(population):
        epc_bits[index] = epc_rng.integers(0, 2, 96)
        mac_rngs.append(np.random.default_rng(children[1 + index]))
    return TagSet(
        epc_bits=epc_bits,
        reply_amplitude_v=np.ones(population),
        powered=np.ones(population, dtype=bool),
        mac_rngs=mac_rngs,
        global_indices=np.arange(population),
        depths_m=np.zeros(population),
        input_voltage_v=np.zeros(population),
    )


def run(config: ThroughputConfig = ThroughputConfig()) -> ThroughputResult:
    rows: List[Tuple[int, int, float, float, float]] = []
    root = np.random.SeedSequence(config.seed)
    for population, population_seq in zip(
        config.populations, root.spawn(len(config.populations))
    ):
        tags = _population_tag_set(population, population_seq)
        result = run_inventory(
            tags,
            None,  # ideal arbitration: singleton reads, collision loses
            initial_q=config.initial_q,
            max_rounds=config.max_rounds,
        )
        # Ideal arbitration decodes exactly the one-reply slots, so the
        # fleet accumulator's decoded/occupied split is the seed MAC's
        # singleton/collision split.
        total_airtime = shard_airtime_s(result, config.blf_hz)
        total_slots = sum(outcome.n_replies.size for outcome in result.rounds)
        read = result.reads
        rate = read / total_airtime if total_airtime > 0 else 0.0
        efficiency = read / total_slots if total_slots else 0.0
        rows.append(
            (population, total_slots, total_airtime * 1e3, rate, efficiency)
        )
    return ThroughputResult(rows=rows)
