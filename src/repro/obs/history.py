"""Benchmark history: append-only JSONL of bench runs + regression math.

``BENCH_runtime.json`` is a single overwrite-in-place snapshot: useful in a
review diff, useless for trends.  This module graduates it to an
append-only ``BENCH_history.jsonl`` -- one JSON entry per benchmark
session, keyed by git revision, timestamp, and an environment fingerprint
(python/numpy versions, CPU count) so rows from different machines or
interpreter versions never silently pollute each other's baselines.

The regression sentinel (:func:`detect_regressions`, surfaced by
``tools/bench_sentinel.py``) compares the current snapshot against a
robust per-bench baseline: the **median** of the most recent matching
history rows with a **MAD-scaled** threshold, so one noisy CI run neither
shifts the baseline nor trips the gate.  ``wall_s`` is checked
higher-is-worse on every bench; throughput rates (``trials_per_s`` etc.)
are checked lower-is-worse where recorded.  A minimum relative change
floor keeps near-zero-MAD baselines (bit-stable microbenches) from
flagging sub-percent jitter.

Schema versioning: every entry carries ``schema_version``
(:data:`HISTORY_SCHEMA_VERSION`).  Bump path: additive fields keep the
version; renaming/removing fields or changing row semantics bumps it, and
:func:`read_history` keeps accepting older versions it knows how to
interpret while :func:`validate_history_entry` rejects versions newer
than the library.
"""

import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.hashing import stable_digest

HISTORY_SCHEMA_VERSION = 1

ENTRY_REQUIRED_KEYS = (
    "schema_version",
    "created_unix_s",
    "git_rev",
    "env",
    "fingerprint",
    "total_wall_s",
    "benches",
)
"""Top-level keys every history entry must carry."""

RATE_KEYS = (
    "trials_per_s",
    "search_candidates_per_s",
    "kernel_samples_per_s",
    "plans_per_s",
    "fleet_tags_per_s",
)
"""Per-row throughput metrics the sentinel checks lower-is-worse."""

MAD_TO_SIGMA = 1.4826
"""Scale factor from median-absolute-deviation to a normal sigma."""


def env_fingerprint(workers: Optional[int] = None) -> Dict[str, Any]:
    """The facts that make two bench runs comparable.

    Rows whose fingerprints differ (new interpreter, different box) are
    excluded from each other's baselines rather than averaged together.
    """
    import numpy as np

    env: Dict[str, Any] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }
    if workers is not None:
        env["workers"] = int(workers)
    return env


def fingerprint_hash(env: Dict[str, Any]) -> str:
    """Short stable hash of an environment fingerprint dict."""
    return stable_digest(env, 12)


def history_entry(
    bench_payload: Dict[str, Any],
    git_rev: Optional[str] = None,
    env: Optional[Dict[str, Any]] = None,
    created_unix_s: Optional[float] = None,
) -> Dict[str, Any]:
    """One history row from a ``BENCH_runtime.json``-shaped payload.

    ``git_rev`` / ``env`` default to the payload's own values (written by
    ``benchmarks/conftest.py``) and finally to live lookups, so replaying
    an old snapshot into history preserves its original provenance.
    """
    from repro.obs.manifest import git_revision

    env = env or bench_payload.get("env") or env_fingerprint()
    return {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "created_unix_s": round(
            time.time() if created_unix_s is None else created_unix_s, 3
        ),
        "git_rev": git_rev or bench_payload.get("git_rev") or git_revision(),
        "env": env,
        "fingerprint": fingerprint_hash(env),
        "total_wall_s": float(bench_payload.get("total_wall_s") or 0.0),
        "benches": [dict(row) for row in bench_payload.get("benches") or []],
    }


def append_history(path, entry: Dict[str, Any]) -> None:
    """Append one entry to the history JSONL (creating the file)."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def read_history(path) -> List[Dict[str, Any]]:
    """All history entries, oldest first (missing file = empty history)."""
    path = Path(path)
    if not path.exists():
        return []
    entries: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def validate_history_entry(entry: Dict[str, Any]) -> List[str]:
    """Schema problems of one history entry (empty list = valid)."""
    problems: List[str] = []
    for key in ENTRY_REQUIRED_KEYS:
        if key not in entry:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    version = entry["schema_version"]
    if not isinstance(version, int) or version < 1:
        problems.append("schema_version must be a positive integer")
    elif version > HISTORY_SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} is newer than supported "
            f"{HISTORY_SCHEMA_VERSION}"
        )
    if not isinstance(entry["env"], dict) or "python" not in entry["env"]:
        problems.append("env must record at least the python version")
    if not isinstance(entry["benches"], list) or not entry["benches"]:
        problems.append("benches must be a non-empty list")
        return problems
    for index, row in enumerate(entry["benches"]):
        if not isinstance(row, dict) or "bench" not in row:
            problems.append(f"benches[{index}] missing key 'bench'")
            continue
        if not isinstance(row.get("wall_s"), (int, float)):
            problems.append(f"benches[{index}] wall_s must be a number")
    return problems


@dataclass
class Baseline:
    """Robust location/scale of one bench metric over recent history."""

    bench: str
    metric: str
    median: float
    mad: float
    samples: int


@dataclass
class Finding:
    """One bench/metric comparison against its baseline."""

    bench: str
    metric: str
    current: float
    baseline: Optional[Baseline]
    status: str
    """One of "regression", "improvement", "ok", "no-baseline"."""
    ratio: float
    """current / baseline median (1.0 when no baseline)."""


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def robust_baseline(
    bench: str, metric: str, values: Sequence[float]
) -> Baseline:
    """Median + MAD of a metric's recent values."""
    med = _median(values)
    mad = _median([abs(v - med) for v in values])
    return Baseline(
        bench=bench, metric=metric, median=med, mad=mad, samples=len(values)
    )


def metric_series(
    entries: Sequence[Dict[str, Any]],
    bench: str,
    metric: str,
    fingerprint: Optional[str] = None,
) -> List[float]:
    """A metric's values across history, oldest first.

    ``fingerprint`` restricts the series to comparable environments.
    """
    series: List[float] = []
    for entry in entries:
        if fingerprint is not None and entry.get("fingerprint") != fingerprint:
            continue
        for row in entry.get("benches") or []:
            if row.get("bench") == bench and isinstance(
                row.get(metric), (int, float)
            ):
                series.append(float(row[metric]))
    return series


def detect_regressions(
    current_rows: Sequence[Dict[str, Any]],
    entries: Sequence[Dict[str, Any]],
    fingerprint: Optional[str] = None,
    window: int = 20,
    min_samples: int = 3,
    mad_factor: float = 4.0,
    min_rel: float = 0.15,
) -> List[Finding]:
    """Compare current bench rows against their history baselines.

    For each bench, ``wall_s`` is checked higher-is-worse and every
    :data:`RATE_KEYS` metric present lower-is-worse.  The detection
    threshold is ``max(mad_factor * MAD_TO_SIGMA * mad, min_rel * median)``
    around the median of the last ``window`` matching samples; benches
    with fewer than ``min_samples`` history points yield "no-baseline"
    findings (reported, never gating).
    """
    findings: List[Finding] = []
    for row in current_rows:
        bench = row.get("bench")
        if not bench:
            continue
        checks = [("wall_s", +1)]
        checks.extend(
            (key, -1) for key in RATE_KEYS if isinstance(row.get(key), (int, float))
        )
        for metric, worse_sign in checks:
            current = row.get(metric)
            if not isinstance(current, (int, float)):
                continue
            series = metric_series(entries, bench, metric, fingerprint)
            series = series[-window:]
            if len(series) < min_samples:
                findings.append(
                    Finding(
                        bench=bench,
                        metric=metric,
                        current=float(current),
                        baseline=None,
                        status="no-baseline",
                        ratio=1.0,
                    )
                )
                continue
            baseline = robust_baseline(bench, metric, series)
            threshold = max(
                mad_factor * MAD_TO_SIGMA * baseline.mad,
                min_rel * abs(baseline.median),
            )
            delta = (float(current) - baseline.median) * worse_sign
            if delta > threshold:
                status = "regression"
            elif delta < -threshold:
                status = "improvement"
            else:
                status = "ok"
            ratio = (
                float(current) / baseline.median
                if baseline.median
                else 1.0
            )
            findings.append(
                Finding(
                    bench=bench,
                    metric=metric,
                    current=float(current),
                    baseline=baseline,
                    status=status,
                    ratio=ratio,
                )
            )
    return findings


def trend_report(
    current_rows: Sequence[Dict[str, Any]],
    findings: Sequence[Finding],
) -> str:
    """Markdown trend report of every finding, regressions first."""
    order = {"regression": 0, "improvement": 1, "ok": 2, "no-baseline": 3}
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.status] = counts.get(finding.status, 0) + 1
    lines = [
        "# Benchmark trend report",
        "",
        f"Benches: {len(current_rows)} -- "
        + ", ".join(
            f"{counts.get(status, 0)} {status}" for status in order
        ),
        "",
        "| bench | metric | current | baseline median | MAD | n | ratio | status |",
        "|---|---|---:|---:|---:|---:|---:|---|",
    ]
    for finding in sorted(
        findings, key=lambda f: (order.get(f.status, 9), f.bench, f.metric)
    ):
        baseline = finding.baseline
        lines.append(
            "| {bench} | {metric} | {current:.4g} | {median} | {mad} | "
            "{n} | {ratio:.2f} | {status} |".format(
                bench=finding.bench,
                metric=finding.metric,
                current=finding.current,
                median=(
                    f"{baseline.median:.4g}" if baseline is not None else "-"
                ),
                mad=f"{baseline.mad:.2g}" if baseline is not None else "-",
                n=baseline.samples if baseline is not None else 0,
                ratio=finding.ratio,
                status=finding.status,
            )
        )
    lines.append("")
    return "\n".join(lines)
