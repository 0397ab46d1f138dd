"""Fleet inventory campaigns: four populations x two depth bands.

``repro.fleet.campaign.run_fleet_campaign`` at ``workers = nproc`` for the
window, then once at ``workers = 1``, which must give the same table and is
reported as the single-process baseline. The only
workload that exercises ``fleet.population``, the Gen2 MAC at population
scale, ``kernels.capture_block`` and ``gen2.fm0.encode_chips_block``; its
``runtime`` use is a few heavy maps, the opposite of ``depth_sweep``.
"""

import time
from typing import Dict, List, Tuple

from perfbench import common, spans
from perfbench.hooks import HOOKS

MAP = "repro.runtime.runner:TrialRunner.map_chunks"
TAIL_PERCENTILE = 75.0
MIN_CAMPAIGNS = 5  # eight cells each: a p75 with ten cells beyond it
# Larger than the campaign default (10, 50, 200, 500): 6800 tags per
# campaign instead of 1520, so how much MAC work a seed's tags happen to
# need, and the start and stop of each cell's pool, weigh less in the rate.
POPULATIONS = (100, 300, 1000, 2000)


def setup() -> None:
    from repro.fleet.campaign import FleetCampaignConfig, run_fleet_campaign

    run_fleet_campaign(FleetCampaignConfig.fast())
    return None


def _campaign(seed: int, workers: int) -> Dict:
    from repro.fleet.campaign import FleetCampaignConfig, run_fleet_campaign

    return run_fleet_campaign(
        FleetCampaignConfig(seed=seed, populations=POPULATIONS),
        workers=workers,
    ).to_json_dict()


def check(payload: Dict) -> List[str]:
    """The fleet schema holds and reads <= powered <= population per cell."""
    from repro.fleet.campaign import validate_fleet_dict

    try:
        validate_fleet_dict(payload)
    except ValueError as exc:
        return [f"fleet table invalid: {exc}"]
    return [
        f"cell {index}: reads {row['reads']}, powered {row['n_powered']}, "
        f"population {row['population']}"
        for index, row in enumerate(payload["rows"])
        if not row["reads"] <= row["n_powered"] <= row["population"]
    ]


def _tags(payload: Dict) -> int:
    return sum(row["population"] for row in payload["rows"])


def measure(state, seed: int, seconds: float) -> Dict:
    workers = common.nproc()
    pooled: List[Tuple[float, float]] = []
    first: List[Dict] = []
    differ = False
    cells: List[float] = []

    def keep(table: Dict) -> None:
        # Only the first table is kept, so memory does not grow with the
        # number of campaigns a run completes.
        nonlocal differ
        if not first:
            first.append(table)
        differ = differ or table != first[0]

    clock = common.HostSpeed()

    def pooled_campaign():
        # The reference kernel runs between cells, while the pool is down.
        with spans.observe(MAP, before=clock.tick) as maps:
            table, unit = clock.timed(_campaign, seed, workers)
        pooled.append(unit)
        cells.extend(call_s for call_s, _ in maps)
        keep(table)

    common.repeat_for(seconds, pooled_campaign, MIN_CAMPAIGNS)
    clock.sample()
    table, serial_s = common.timed(_campaign, seed, 1)
    keep(table)
    errors = check(first[0])
    if differ:
        errors.append(f"workers={workers} and workers=1 tables differ")
    tags = _tags(first[0]) * len(pooled)
    wall = [end - start for start, end in pooled]
    rate = tags / sum(clock.scaled(*unit) for unit in pooled)
    return {
        "attempted": len(cells),
        "failed": 0,
        "errors": errors,
        "digest": common.digest(first[0]),
        "metrics": {"rate_per_s": rate},
        "report": {
            "workers": workers,
            "cell_latency": common.latency_stats(cells, TAIL_PERCENTILE),
            "fleet_tags_per_s": rate,
            "wall_tags_per_s": tags / sum(wall),
            "reference_kernel_s": common.median(clock.seconds),
            "campaigns": len(pooled),
            "campaign_s": common.mean(wall),
            "serial_campaign_s": serial_s,
        },
    }


def trace(state, seed: int, seconds: float) -> Dict:
    """Serial campaigns (worker processes are not traced): as many as fit
    in a third of the window untraced, then the same count traced."""
    count = common.repeat_for(seconds / 3.0, lambda: _campaign(seed, 1))
    start = time.perf_counter()
    untraced_table = [_campaign(seed, 1) for _ in range(count)][0]
    untraced = time.perf_counter() - start
    recorder = spans.Recorder()
    with recorder.installed(HOOKS):
        start = time.perf_counter()
        tables = [_campaign(seed, 1) for _ in range(count)]
        end = time.perf_counter()
    table = tables[0]
    errors = check(table)
    if any(t != untraced_table for t in tables):
        errors.append("traced and untraced tables differ")
    rows = [row for t in tables for row in t["rows"]]
    counts = {
        "fleet.tags": sum(row["population"] for row in rows),
        **{
            f"fleet.{key}": sum(row[key] for row in rows)
            for key in ("reads", "rounds", "slots", "collision_slots", "captures")
        },
    }
    counts["fleet.reads_per_slot"] = counts["fleet.reads"] / counts["fleet.slots"]
    return {
        "recorder": recorder,
        "wall": (start, end),
        "untraced_s": untraced,
        "counts": counts,
        "attempted": len(rows),
        "failed": 0,
        "errors": errors,
        "digest": common.digest(table),
    }
