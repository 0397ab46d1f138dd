"""The original InventoryRound-driven throughput loop.

:func:`run_reference` drives real :class:`~repro.gen2.tag_state.Gen2Tag`
state machines through :class:`~repro.gen2.inventory.InventoryRound`;
:func:`repro.experiments.inventory_throughput.run`, built on the fleet
resolver, must reproduce its rows exactly, draw for draw.
"""

from typing import List, Tuple

import numpy as np

from repro.experiments.inventory_throughput import (
    AirtimeModel,
    ThroughputConfig,
    ThroughputResult,
)
from repro.gen2.inventory import InventoryRound, QAlgorithm
from repro.gen2.tag_state import Gen2Tag


def run_reference(
    config: ThroughputConfig = ThroughputConfig(),
) -> ThroughputResult:
    """The original InventoryRound-driven loop, kept verbatim."""
    airtime = AirtimeModel(blf_hz=config.blf_hz)
    rows: List[Tuple[int, int, float, float, float]] = []
    root = np.random.SeedSequence(config.seed)
    for population, population_seq in zip(
        config.populations, root.spawn(len(config.populations))
    ):
        children = population_seq.spawn(population + 1)
        rng = np.random.default_rng(children[0])
        tags = []
        for index in range(population):
            epc = tuple(int(b) for b in rng.integers(0, 2, 96))
            tag = Gen2Tag(epc, np.random.default_rng(children[1 + index]))
            tag.power_up()
            tags.append(tag)
        algorithm = QAlgorithm(initial_q=config.initial_q)
        seen = set()
        total_airtime = 0.0
        total_slots = 0
        for _ in range(config.max_rounds):
            round_driver = InventoryRound(tags)
            result = round_driver.run(algorithm.q)
            total_airtime += airtime.query_s()
            for slot in result.slots:
                total_airtime += airtime.slot_s(slot.kind)
                total_slots += 1
                algorithm.on_slot(slot.n_replies)
            seen.update(result.epcs)
            if result.n_singletons == 0 and result.n_collisions == 0:
                break
        read = len(seen)
        rate = read / total_airtime if total_airtime > 0 else 0.0
        efficiency = read / total_slots if total_slots else 0.0
        rows.append(
            (population, total_slots, total_airtime * 1e3, rate, efficiency)
        )
    return ThroughputResult(rows=rows)
