"""Run manifests: enough provenance to reproduce any reported table.

Every CLI experiment run can emit a JSON manifest recording *what* ran
(experiment names, full config dataclass dumps, seeds and their
``SeedSequence`` entropy), *how* it ran (worker count, engine tiers the
runtime actually chose, command line), *where* (git revision, package /
python / numpy versions, platform) and *what came out* (metric summary,
trace file path).  A reviewer holding a manifest can re-issue the exact
command and, because the runtime is bit-identical across worker counts,
regenerate the same numbers.

The schema is intentionally flat JSON -- no custom types -- validated by
:func:`validate_manifest` (also used by ``tools/check_obs_schema.py`` and
the test suite).
"""

import dataclasses
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

MANIFEST_SCHEMA_VERSION = 1

REQUIRED_KEYS = (
    "schema_version",
    "experiment",
    "runs",
    "workers",
    "command",
    "environment",
    "metrics",
    "trace_path",
)
"""Top-level keys every manifest must carry."""

RUN_REQUIRED_KEYS = ("experiment", "config", "seed", "elapsed_s")
"""Keys every entry of ``manifest["runs"]`` must carry."""


def git_revision(repo_dir: Optional[Path] = None) -> Optional[str]:
    """Current git commit hash, or None outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir or Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def environment_info() -> Dict[str, Any]:
    """Versions and platform facts that pin down the execution environment."""
    try:
        from repro import __version__ as package_version
    except Exception:  # pragma: no cover - import cycle safety net
        package_version = None
    return {
        "package_version": package_version,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_rev": git_revision(),
    }


def config_dump(config: Any) -> Optional[Dict[str, Any]]:
    """A JSON-safe dump of an experiment config dataclass (or None)."""
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        raw = dataclasses.asdict(config)
    elif isinstance(config, dict):
        raw = dict(config)
    else:
        raw = {"repr": repr(config)}
    return json.loads(json.dumps(raw, default=repr))


def seed_entropy(seed: Optional[int]) -> Optional[int]:
    """The ``SeedSequence`` entropy the runtime derives trial streams from.

    Chunk functions spawn per-trial generators from
    ``SeedSequence(seed)``; recording the entropy (for plain ints, the
    seed itself) makes the stream derivation explicit in the manifest.
    """
    if seed is None:
        return None
    entropy = np.random.SeedSequence(seed).entropy
    return int(entropy) if entropy is not None else None


def run_record(
    experiment: str,
    config: Any = None,
    seed: Optional[int] = None,
    elapsed_s: float = 0.0,
) -> Dict[str, Any]:
    """One entry of ``manifest["runs"]``."""
    if seed is None and config is not None:
        seed = getattr(config, "seed", None)
    return {
        "experiment": experiment,
        "config": config_dump(config),
        "seed": seed,
        "seed_entropy": seed_entropy(seed),
        "elapsed_s": round(float(elapsed_s), 4),
    }


def build_manifest(
    runs: Sequence[Dict[str, Any]],
    workers: int = 1,
    command: Optional[Sequence[str]] = None,
    metrics: Optional[Dict[str, Any]] = None,
    trace_path: Optional[str] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a manifest for a CLI invocation.

    Args:
        runs: :func:`run_record` entries, one per experiment executed.
        workers: ``--workers`` value the runtime used.
        command: Reconstructed argv that reruns the experiment.
        metrics: ``MetricsRegistry.summary()`` of the run context; the
            engine tiers actually chosen are lifted out of its
            ``engine.tier.*`` counters.
        trace_path: Where the span JSONL was written (None if not traced).
        extra: Free-form additions (kept under an ``"extra"`` key).
    """
    runs = list(runs)
    tiers = sorted(
        name.split(".", 2)[2]
        for name in (metrics or {}).get("counters", {})
        if name.startswith("engine.tier.")
    )
    manifest: Dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_unix_s": round(time.time(), 3),
        "experiment": ",".join(run["experiment"] for run in runs),
        "runs": runs,
        "workers": int(workers),
        "engine_tiers": tiers,
        "command": list(command) if command is not None else None,
        "environment": environment_info(),
        "metrics": metrics or {},
        "trace_path": None if trace_path is None else str(trace_path),
    }
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


def write_manifest(path, manifest: Dict[str, Any]) -> None:
    """Write a manifest as indented JSON."""
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> Dict[str, Any]:
    """Load a manifest written by :func:`write_manifest`."""
    return json.loads(Path(path).read_text())


def validate_manifest(manifest: Dict[str, Any]) -> List[str]:
    """Schema problems of a manifest dict (empty list = valid)."""
    problems: List[str] = []
    for key in REQUIRED_KEYS:
        if key not in manifest:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    if manifest["schema_version"] != MANIFEST_SCHEMA_VERSION:
        problems.append(
            f"schema_version {manifest['schema_version']!r} != "
            f"{MANIFEST_SCHEMA_VERSION}"
        )
    if not isinstance(manifest["runs"], list) or not manifest["runs"]:
        problems.append("runs must be a non-empty list")
        return problems
    for index, run in enumerate(manifest["runs"]):
        for key in RUN_REQUIRED_KEYS:
            if key not in run:
                problems.append(f"runs[{index}] missing key {key!r}")
    environment = manifest["environment"]
    if not isinstance(environment, dict) or "python" not in environment:
        problems.append("environment must record at least the python version")
    if not isinstance(manifest["workers"], int) or manifest["workers"] < 1:
        problems.append("workers must be a positive integer")
    return problems
