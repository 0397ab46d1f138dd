"""Bench: the vectorized fleet resolver vs the scalar reference resolver.

The fleet PR's acceptance gate, executable: inventorying one phantom
fleet with capture-effect arbitration through the stacked-array resolver
(:func:`repro.fleet.collision.run_inventory`) must be at least 5x faster
than driving the same tags through the per-slot Gen2Tag state-machine
walk with scalar receive and decode
(:func:`tests.reference.fleet.run_inventory_reference`) -- while the two
outcomes stay bitwise identical (read order, per-slot reply counts,
decode verdicts, Q trajectory).

The run also records ``fleet_tags`` / ``fleet_tags_per_s`` into
``BENCH_runtime.json`` via the harness counters.
"""

import time

from repro.experiments.report import Table
from repro.fleet import CaptureModel, FleetConfig, generate_shard, run_inventory
from tests.reference.fleet import run_inventory_reference
from conftest import run_once

FLEET = FleetConfig(n_tags=192, n_shards=1, initial_q=6, seed=92)
CAPTURE = CaptureModel()
BEST_OF = 3


def _inventory(resolver, tag_set):
    return resolver(
        tag_set,
        CAPTURE,
        initial_q=FLEET.initial_q,
        max_rounds=FLEET.max_rounds,
        session=FLEET.session,
        seed_material=FLEET.seed_material(),
        seed=FLEET.seed,
        shard_index=0,
    )


def _best_of(resolver):
    """(best wall seconds, result) over BEST_OF identically seeded runs.

    Tag generators are stateful, so every run gets its own identically
    seeded realization of the same fleet; generation cost stays outside
    the timed section.
    """
    best = float("inf")
    result = None
    for _ in range(BEST_OF):
        tag_set = generate_shard(FLEET, 0)
        start = time.perf_counter()
        result = _inventory(resolver, tag_set)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_fleet_resolver_speedup_and_parity(benchmark, emit):
    _inventory(run_inventory, generate_shard(FLEET, 0))  # warm

    def timed_comparison():
        t_scalar, reference = _best_of(run_inventory_reference)
        t_vectorized, vectorized = _best_of(run_inventory)
        return reference, vectorized, t_scalar, t_vectorized

    reference, vectorized, t_scalar, t_vectorized = run_once(
        benchmark, timed_comparison
    )
    speedup = t_scalar / t_vectorized

    table = Table(
        title=(
            f"Fleet -- capture-arbitrated inventory of {FLEET.n_tags} tags "
            f"({len(vectorized.rounds)} rounds, "
            f"{vectorized.n_captures} captures)"
        ),
        headers=("path", "wall (s)", "tags/s", "speedup"),
    )
    table.add_row(
        "Gen2Tag walk + scalar decode",
        t_scalar,
        reference.reads / t_scalar,
        1.0,
    )
    table.add_row(
        "run_inventory (stacked)",
        t_vectorized,
        vectorized.reads / t_vectorized,
        speedup,
    )
    emit(table)

    assert vectorized.signature() == reference.signature()
    assert vectorized.reads == FLEET.n_tags
    assert speedup >= 5.0, f"fleet resolver only {speedup:.1f}x faster"
