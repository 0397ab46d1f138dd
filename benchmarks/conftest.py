"""Benchmark-harness helpers.

Each bench regenerates one table or figure from the paper's evaluation and
prints the same rows/series the paper reports. Run with::

    pytest benchmarks/ --benchmark-only -s

The ``-s`` flag shows the reproduced tables inline.

Every ``run_once`` call also records the bench's wall-clock time and the
number of Monte-Carlo trials the :mod:`repro.runtime` engine processed
during it; the session writes the rows, with the git revision and the
python/numpy versions and CPU count, to ``BENCH_runtime.json`` at the repo
root. That file is an untracked per-run artifact (CI uploads it); the
regression benchmark is ``perfbench/``, judged against the bounds in
``BENCHMARK.json``.
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.report import runtime_table
from repro.obs.context import obs_context
from repro.obs.manifest import git_revision

_RUNTIME_ROWS = []


def _engine_trials(obs) -> int:
    """Total trials of the ``--timings`` stage rows ``obs`` recorded."""
    table = runtime_table(obs.tracer.to_dicts())
    return sum(table.column("trials")[:-1])  # the last row is TOTAL


_KERNEL_COUNTERS = (
    "kernels.rectifier_samples",
    "kernels.capture_samples",
    "kernels.ber_chips",
)


def run_once(benchmark, fn, row_extra=None):
    """Execute ``fn`` exactly once under the benchmark timer.

    The experiments are monte-carlo sweeps, not microbenchmarks; one round
    gives the wall-clock cost of regenerating the figure while keeping the
    suite fast.

    ``fn`` runs under a fresh, unbounded ``obs_context`` so the row's
    counts are exactly what ``fn`` recorded: ``engine_trials`` sums the
    ``trials`` of its stage spans, the other counts read its metrics.

    Counters a bench never touches are omitted from its row entirely --
    a row without ``engine_trials`` means "not a trial workload", which
    reads differently from a measured zero throughput.

    ``row_extra`` (a dict, or a zero-argument callable returning one,
    evaluated after the run) merges extra fields into the recorded row --
    how ``bench_serve`` attaches latency quantiles and batch occupancy.
    """
    with obs_context() as obs:
        start = time.perf_counter()
        result = benchmark.pedantic(fn, iterations=1, rounds=1)
        wall_s = time.perf_counter() - start
    row = {"bench": benchmark.name, "wall_s": round(wall_s, 4)}
    counters = obs.metrics.counters()
    counts = (
        ("engine_trials", "trials_per_s", _engine_trials(obs)),
        (
            "search_candidates",
            "search_candidates_per_s",
            counters.get("search.candidates_scored", 0),
        ),
        (
            "kernel_samples",
            "kernel_samples_per_s",
            sum(counters.get(name, 0) for name in _KERNEL_COUNTERS),
        ),
        ("serve_plans", "plans_per_s", counters.get("serve.plans", 0)),
        (
            "fleet_tags",
            "fleet_tags_per_s",
            counters.get("fleet.tags_inventoried", 0),
        ),
    )
    for count_key, rate_key, count in counts:
        if not count:
            continue
        row[count_key] = int(count)
        row[rate_key] = round(count / wall_s, 1) if wall_s > 0 else 0.0
    adaptive_run = int(counters.get("adaptive.trials_run", 0))
    adaptive_saved = int(counters.get("adaptive.trials_saved", 0))
    if adaptive_run or adaptive_saved:
        row["adaptive_trials_run"] = adaptive_run
        row["adaptive_trials_saved"] = adaptive_saved
    if row_extra is not None:
        row.update(row_extra() if callable(row_extra) else row_extra)
    _RUNTIME_ROWS.append(row)
    return result


def pytest_sessionfinish(session, exitstatus):
    if not _RUNTIME_ROWS:
        return
    root = Path(__file__).resolve().parent.parent
    payload = {
        "total_wall_s": round(sum(r["wall_s"] for r in _RUNTIME_ROWS), 4),
        "git_rev": git_revision(),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "benches": _RUNTIME_ROWS,
    }
    (root / "BENCH_runtime.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )


@pytest.fixture
def emit():
    """Print a reproduced table, clearly delimited, even without -s."""

    def _emit(table) -> None:
        text = table.render() if hasattr(table, "render") else str(table)
        print("\n" + "=" * 72)
        print(text)
        print("=" * 72)

    return _emit
