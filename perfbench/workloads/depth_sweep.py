"""All four Fig. 13 panels, calibration included, at ``workers = nproc``
and at ``workers = 1`` on the same seed.

The sweep is hundreds of bisection probes, each a small
``power_up_trials`` map, so ``runtime`` dispatch dominates the parallel
run while the serial run is compute in ``em``, ``runtime.engine`` and
``harvester``. Neither touches ``reader``, ``sensors`` or ``gen2``: this is
the workload on which a link-side change must show no effect. The serial
run is also the plain single-threaded baseline of the same problem.
"""

import time
from typing import Dict, List

from perfbench import common, spans
from perfbench.hooks import HOOKS

PROBE = "repro.experiments.fig13:power_up_probability"
MAP = "repro.runtime.runner:TrialRunner.map_chunks"
TAIL_PERCENTILE = 98.0  # ~600 probes per table
RATE_SLICES = 8  # ~74 consecutive probes each


def setup() -> None:
    from repro.experiments import fig13

    fig13.run(fig13.Fig13Config(antenna_counts=(1,), n_trials=2, calibrate=False))
    return None


def _table(seed: int, workers: int):
    from repro.experiments import fig13

    config = fig13.Fig13Config(seed=seed, workers=workers)
    result = fig13.run(config)
    return config, result


def output(result) -> Dict:
    return {
        "eirp_w": result.eirp_w,
        **{
            f"{tag}/{medium}": [list(point) for point in series]
            for (tag, medium), series in result.panels.items()
        },
    }


def check(table: Dict) -> List[str]:
    """The Fig. 13 shape the repository's ``bench_fig13`` asserts."""
    errors = []
    standard_air = [v for _, v in table["standard/air"]]
    miniature_air = [v for _, v in table["miniature/air"]]
    standard_water = [v for _, v in table["standard/water"]]
    miniature_water = [v for _, v in table["miniature/water"]]

    def expect(ok: bool, message: str) -> None:
        if not ok:
            errors.append(message)

    expect(abs(standard_air[0] - 5.2) < 0.3, "calibration anchor off 5.2 m")
    expect(standard_air[-1] > 25.0, "standard air range at 8 antennas <= 25 m")
    gain = standard_air[-1] / standard_air[0] if standard_air[0] else 0.0
    expect(4.0 <= gain <= 10.0, f"standard air range gain {gain:.2f} outside 4-10")
    expect(0.2 <= miniature_air[0] <= 1.2, "miniature air range at 1 antenna")
    expect(miniature_air[-1] > 2.0, "miniature air range at 8 antennas")
    expect(
        standard_water[0] == 0.0 and miniature_water[0] == 0.0,
        "water depth at one antenna is not zero",
    )
    expect(0.15 <= standard_water[-1] <= 0.35, "standard water depth at 8")
    expect(0.05 <= miniature_water[-1] <= 0.20, "miniature water depth at 8")
    expect(
        standard_water[-1] - standard_water[-2]
        < standard_water[2] - standard_water[1] + 0.02,
        "water depth is not concave in the antenna count",
    )
    return errors


def measure(state, seed: int, seconds: float) -> Dict:
    """Serial tables around the pooled ones, a third of the window each.

    The pooled table takes longer than a run (its ~600 probes each start
    and stop a pool), so it usually runs once; its rate is the median over
    :data:`RATE_SLICES` consecutive slices of its probes, each slice's
    trials over the wall time of its probes at the reference host speed
    (the kernel is timed between probes), so a slow spell of the host
    during part of the table moves it little. The ~1 s serial table runs
    before it and again after it; every table must be the same.
    """
    workers = common.nproc()
    pooled: List[float] = []
    serial: List[float] = []
    tables: List[Dict] = []
    probes: List[float] = []
    slice_rates: List[float] = []
    wall_rates: List[float] = []
    clock = common.HostSpeed()

    def serial_table():
        (_, result), elapsed = common.timed(_table, seed, 1)
        serial.append(elapsed)
        tables.append(output(result))

    common.repeat_for(seconds / 3.0, serial_table)

    def pooled_table():
        starts: List[float] = []

        def before():
            clock.tick()
            starts.append(time.perf_counter())

        with spans.observe(PROBE, before=before) as calls:
            (config, result), elapsed = common.timed(_table, seed, workers)
        clock.sample()
        pooled.append(elapsed)
        walls = [call_s for call_s, _ in calls]
        probes.extend(walls)
        size = len(walls) // RATE_SLICES
        for first in range(0, size * RATE_SLICES, size):
            last = first + size - 1
            busy = sum(walls[first:last + 1])
            factor = clock.factor(starts[first], starts[last] + walls[last])
            slice_rates.append(size * config.n_trials / (busy * factor))
            wall_rates.append(size * config.n_trials / busy)
        tables.append(output(result))

    common.repeat_for(seconds / 3.0, pooled_table)
    common.repeat_for(seconds / 3.0, serial_table)
    errors = check(tables[0])
    if any(table != tables[0] for table in tables):
        errors.append(f"workers={workers} and workers=1 tables differ")
    return {
        "attempted": len(probes),
        "failed": 0,
        "errors": errors,
        "digest": common.digest(tables[0]),
        "metrics": {"rate_per_s": common.median(slice_rates)},
        "report": {
            "workers": workers,
            "probe_latency": common.latency_stats(probes, TAIL_PERCENTILE),
            "sweep_table_s": common.median(pooled),
            "slice_rates_per_s": slice_rates,
            "wall_rate_per_s": common.median(wall_rates),
            "reference_kernel_s": common.median(clock.seconds),
            "sweep_serial_table_s": common.mean(serial),
            "serial_tables_s": serial,
            "probes_per_table": len(probes) // len(pooled),
        },
    }


def trace(state, seed: int, seconds: float) -> Dict:
    """Pool cost from two untraced map timings; layers from a serial run.

    Worker processes are not traced, so the per-layer spans come from a
    ``workers = 1`` run; ``runtime.dispatch_s`` is the map wall time at
    ``workers = nproc`` minus the same maps' serial wall time.
    """
    from repro.obs.context import obs_context

    workers = common.nproc()
    with obs_context() as obs, spans.observe(MAP) as pooled_maps:
        _, result = _table(seed, workers)
    runner_counts = obs.metrics.counters()
    with spans.observe(MAP) as serial_maps:
        (_, serial_result), untraced = common.timed(_table, seed, 1)
    recorder = spans.Recorder()
    with recorder.installed(HOOKS):
        start = time.perf_counter()
        _, traced_result = _table(seed, 1)
        end = time.perf_counter()
    tables = [output(r) for r in (result, serial_result, traced_result)]
    errors = check(tables[0])
    if any(table != tables[0] for table in tables):
        errors.append("pooled, serial and traced tables differ")
    counts = {
        "runtime.dispatch_s": sum(s for s, _ in pooled_maps)
        - sum(s for s, _ in serial_maps),
        "runtime.maps": len(pooled_maps),
        "runtime.chunks": runner_counts.get("runner.chunks", 0),
        "runtime.chunk_retries": runner_counts.get("runner.chunk_retries", 0),
    }
    return {
        "recorder": recorder,
        "wall": (start, end),
        "untraced_s": untraced,
        "counts": counts,
        "attempted": int(recorder.counts.get("sweep.probes", 0)),
        "failed": 0,
        "errors": errors,
        "digest": common.digest(tables[0]),
    }
