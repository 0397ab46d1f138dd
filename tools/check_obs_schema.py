#!/usr/bin/env python
"""Validate every observability artifact schema in one pass.

Usage::

    python tools/check_obs_schema.py [--trace TRACE.jsonl]
        [--metrics METRICS.json] [--manifest MANIFEST.json]
        [--collapsed STACKS.collapsed] [--store PLANS.sqlite] [--serve]
        [--tables TABLES.json]

Traces, metrics, manifests, collapsed-stack exports, and the experiments
CLI's ``--tables-out`` payloads are all versioned schemas, and CI runs
this against freshly written artifacts so drift fails the build instead
of surfacing downstream.

``--tables`` checks every experiment of :data:`TABLE_CHECKERS` the payload
holds (``fleet``: schema plus one row per configured cell;
``degradation``: the four fault tables plus the antenna-dropout N-1 law),
and fails when it holds none of them.

Versioning: each schema carries its own ``*_SCHEMA_VERSION`` constant
(``repro.obs.trace.TRACE_SCHEMA_VERSION``,
``repro.obs.manifest.MANIFEST_SCHEMA_VERSION``,
``repro.fleet.campaign.FLEET_SCHEMA_VERSION``,
``repro.faults.campaign.DEGRADATION_SCHEMA_VERSION``).  The bump path
is: additive fields keep the version; renamed/removed fields or changed
semantics bump it, the validator here learns both forms, and writers emit
only the current one.

Exits non-zero if any requested artifact has problems, printing each.
Needs ``src`` on ``PYTHONPATH`` (or the package installed); the script
adds the repository's ``src`` directory itself when run from a checkout.
"""

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Callable, Dict, List

_REPO_SRC = Path(__file__).resolve().parent.parent / "src"
if _REPO_SRC.is_dir() and str(_REPO_SRC) not in sys.path:
    sys.path.insert(0, str(_REPO_SRC))

from repro.faults.campaign import validate_degradation_dict  # noqa: E402
from repro.fleet.campaign import validate_fleet_dict  # noqa: E402
from repro.obs import read_manifest, validate_manifest  # noqa: E402
from repro.obs.trace import validate_span_dict  # noqa: E402

_COLLAPSED_LINE = re.compile(r"^\S.* (\d+)$")

DEGRADATION_TABLES = (
    "antenna_dropout",
    "pll_relock",
    "tag_detuning",
    "bit_corruption",
)
N_MINUS_ONE_TOLERANCE = 1e-6


def check_trace(path: Path) -> List[str]:
    """Problems found in a JSONL trace file.

    Unresolved parent ids are reported: a trace truncated by the span
    retention cap can legitimately contain them (children record before
    their dropped parents), but a *complete* CI artifact should not --
    the analyzer tolerates orphans, the validator flags them.
    """
    problems: List[str] = []
    span_ids = set()
    parent_refs = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: not JSON ({exc})")
                continue
            for problem in validate_span_dict(payload):
                problems.append(f"line {lineno}: {problem}")
            if isinstance(payload.get("span_id"), int):
                if payload["span_id"] in span_ids:
                    problems.append(
                        f"line {lineno}: duplicate span_id {payload['span_id']}"
                    )
                span_ids.add(payload["span_id"])
            if payload.get("parent_id") is not None:
                parent_refs.append((lineno, payload["parent_id"]))
    if not span_ids:
        problems.append("trace contains no spans")
    for lineno, parent in parent_refs:
        if parent not in span_ids:
            problems.append(
                f"line {lineno}: parent_id {parent} not present in trace"
            )
    return problems


def check_metrics(path: Path) -> List[str]:
    """Problems found in a metrics JSON file."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable metrics file: {exc}"]
    problems: List[str] = []
    for section in ("counters", "gauges", "histograms"):
        if section not in payload or not isinstance(payload[section], dict):
            problems.append(f"metrics missing {section!r} object")
    for name, data in (payload.get("histograms") or {}).items():
        edges = data.get("edges") or []
        counts = data.get("counts") or []
        if len(counts) != len(edges) + 1:
            problems.append(
                f"histogram {name!r}: {len(edges)} edges need "
                f"{len(edges) + 1} buckets, got {len(counts)}"
            )
        if sum(counts) != data.get("count"):
            problems.append(
                f"histogram {name!r}: bucket counts sum to {sum(counts)} "
                f"but count is {data.get('count')}"
            )
    return problems


def check_collapsed(path: Path) -> List[str]:
    """Problems found in a collapsed-stack export.

    The format speedscope/flamegraph.pl ingest: every line is
    ``frame[;frame...] <positive integer>``.
    """
    problems: List[str] = []
    lines = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                lines += 1
                match = _COLLAPSED_LINE.match(line)
                if not match:
                    problems.append(
                        f"line {lineno}: not 'stack count' format: {line!r}"
                    )
                elif int(match.group(1)) < 1:
                    problems.append(f"line {lineno}: non-positive count")
    except OSError as exc:
        return [f"unreadable collapsed file: {exc}"]
    if not lines:
        problems.append("collapsed export contains no stacks")
    return problems


def check_store(path: Path) -> List[str]:
    """Problems found in a persistent SQLite plan store.

    Checks the ``store_meta`` contract (current schema version, an integer
    ``search_rev``), the ``plans`` column layout, and that every stored
    payload round-trips through ``result_from_json`` -- a payload the
    serving path could not replay is a schema problem, not a cache miss.
    """
    import sqlite3

    from repro.core.optimizer import SEARCH_REV
    from repro.runtime.cache import result_from_json
    from repro.serve.store import STORE_SCHEMA_VERSION

    if not path.is_file():
        return [f"store file {path} does not exist"]
    problems: List[str] = []
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        meta = dict(conn.execute("SELECT key, value FROM store_meta"))
        if meta.get("schema_version") != str(STORE_SCHEMA_VERSION):
            problems.append(
                f"store_meta schema_version is "
                f"{meta.get('schema_version')!r}, expected "
                f"{STORE_SCHEMA_VERSION!r}"
            )
        if not str(meta.get("search_rev", "")).isdigit():
            problems.append(
                f"store_meta search_rev is {meta.get('search_rev')!r}, "
                "expected an integer"
            )
        columns = [
            row[1] for row in conn.execute("PRAGMA table_info(plans)")
        ]
        expected = [
            "key",
            "search_rev",
            "payload",
            "created_unix_s",
            "last_used_unix_s",
            "hits",
        ]
        if columns != expected:
            problems.append(
                f"plans columns are {columns}, expected {expected}"
            )
            return problems
        for key, search_rev, payload in conn.execute(
            "SELECT key, search_rev, payload FROM plans"
        ):
            if search_rev != SEARCH_REV:
                problems.append(
                    f"plan {key!r}: search_rev {search_rev} != live "
                    f"{SEARCH_REV}"
                )
            try:
                result_from_json(json.loads(payload))
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(
                    f"plan {key!r}: payload does not round-trip ({exc})"
                )
    except sqlite3.Error as exc:
        problems.append(f"store query failed: {exc}")
    finally:
        conn.close()
    return problems


_SERVE_SOURCES = {"memory", "store", "coalesced", "computed", "error"}


def check_serve_trace(path: Path) -> List[str]:
    """Serve-layer problems in a trace (the ``--serve`` contract).

    Requires at least one ``serve.request`` span carrying a valid
    ``source`` attribute, and -- because a serving run always either
    computes (batches) or replays from the durable tier -- at least one
    ``serve.batch`` span (with sane ``size``/``groups``) or one
    ``serve.store_hit`` span.
    """
    problems: List[str] = []
    requests = batches = store_hits = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue  # check_trace already reports this
            name = payload.get("name")
            attrs = payload.get("attrs") or {}
            if name == "serve.request":
                requests += 1
                source = attrs.get("source")
                if source not in _SERVE_SOURCES:
                    problems.append(
                        f"line {lineno}: serve.request source {source!r} "
                        f"not in {sorted(_SERVE_SOURCES)}"
                    )
                if not attrs.get("key"):
                    problems.append(
                        f"line {lineno}: serve.request has no key attr"
                    )
            elif name == "serve.batch":
                batches += 1
                size = attrs.get("size")
                groups = attrs.get("groups")
                if not isinstance(size, int) or size < 1:
                    problems.append(
                        f"line {lineno}: serve.batch size {size!r} invalid"
                    )
                if (
                    not isinstance(groups, int)
                    or groups < 1
                    or (isinstance(size, int) and groups > size)
                ):
                    problems.append(
                        f"line {lineno}: serve.batch groups {groups!r} "
                        "invalid"
                    )
            elif name == "serve.store_hit":
                store_hits += 1
                if attrs.get("tier") != "store":
                    problems.append(
                        f"line {lineno}: serve.store_hit tier "
                        f"{attrs.get('tier')!r} invalid"
                    )
    if not requests:
        problems.append("no serve.request spans in trace")
    if not batches and not store_hits:
        problems.append(
            "no serve.batch or serve.store_hit spans in trace (the run "
            "neither computed nor replayed from the durable tier)"
        )
    return problems


def check_fleet_tables(fleet: dict) -> List[str]:
    """The ``fleet`` entry: schema, and one row per configured cell."""
    try:
        validate_fleet_dict(fleet)
    except ValueError as exc:
        return [str(exc)]
    config = fleet["config"]
    expected = (
        len(config["populations"])
        * len(config["depth_bands"])
        * len(config["array_sizes"])
    )
    rows = fleet["rows"]
    if len(rows) != expected:
        return [
            f"expected {expected} cell rows "
            f"(populations x depth bands x array sizes), got {len(rows)}"
        ]
    return []


def check_n_minus_one(table: dict) -> List[str]:
    """The dropout table must match (N - k)/N at every severity.

    Losing k of N antenna branches lands at exactly (N - k)/N of the
    healthy aligned peak.
    """
    problems = []
    baseline = table.get("baseline", 0.0)
    if baseline <= 0.0:
        return ["antenna_dropout: non-positive baseline"]
    n = round(baseline)  # aligned peak of N unit branches is exactly N
    for severity, value in zip(table["severities"], table["values"]):
        k = round(severity)
        expected = (n - k) / n
        relative = value / baseline
        if abs(relative - expected) > N_MINUS_ONE_TOLERANCE:
            problems.append(
                f"antenna_dropout: k={k} relative peak {relative:.6f} "
                f"!= (N-k)/N = {expected:.6f}"
            )
    return problems


def check_degradation_tables(entry: dict) -> List[str]:
    """The ``degradation`` entry: the four fault tables and the N-1 law."""
    tables = entry.get("tables") if isinstance(entry, dict) else None
    if not isinstance(tables, dict):
        return ["degradation entry has no tables object"]
    problems = []
    for name in DEGRADATION_TABLES:
        if name not in tables:
            problems.append(f"missing table {name!r}")
            continue
        try:
            validate_degradation_dict(tables[name])
        except ValueError as exc:
            problems.append(f"table {name!r}: {exc}")
        else:
            if name == "antenna_dropout":
                problems.extend(check_n_minus_one(tables[name]))
    return problems


TABLE_CHECKERS: Dict[str, Callable[[dict], List[str]]] = {
    "degradation": check_degradation_tables,
    "fleet": check_fleet_tables,
}
"""``--tables-out`` experiment name -> checker of its payload entry."""


def check_tables(path: Path) -> List[str]:
    """Problems found in an experiments CLI ``--tables-out`` payload."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable tables file: {exc}"]
    if not isinstance(payload, dict) or not isinstance(
        payload.get("experiments"), dict
    ):
        return ["payload has no experiments object"]
    experiments = payload["experiments"]
    kinds = [kind for kind in TABLE_CHECKERS if kind in experiments]
    if not kinds:
        return [f"payload holds none of {sorted(TABLE_CHECKERS)}"]
    return [
        f"{kind}: {problem}"
        for kind in kinds
        for problem in TABLE_CHECKERS[kind](experiments[kind])
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=Path, help="span trace JSONL file")
    parser.add_argument("--metrics", type=Path, help="metrics JSON file")
    parser.add_argument("--manifest", type=Path, help="run manifest JSON file")
    parser.add_argument(
        "--collapsed", type=Path, help="collapsed-stack export file"
    )
    parser.add_argument(
        "--store", type=Path, help="persistent SQLite plan-store file"
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="additionally require valid serve-layer spans in --trace "
        "(serve.request sources, serve.batch occupancy, store hits)",
    )
    parser.add_argument(
        "--tables",
        type=Path,
        help="experiments --tables-out JSON file "
        f"(checks {', '.join(sorted(TABLE_CHECKERS))})",
    )
    args = parser.parse_args(argv)
    if not any(
        (
            args.trace,
            args.metrics,
            args.manifest,
            args.collapsed,
            args.store,
            args.tables,
        )
    ):
        parser.error(
            "nothing to check: pass --trace/--metrics/--manifest/"
            "--collapsed/--store/--tables"
        )
    if args.serve and not args.trace:
        parser.error("--serve needs --trace")

    failures = 0
    for label, problems in (
        ("trace", check_trace(args.trace) if args.trace else []),
        (
            "serve",
            check_serve_trace(args.trace) if args.serve else [],
        ),
        ("store", check_store(args.store) if args.store else []),
        ("metrics", check_metrics(args.metrics) if args.metrics else []),
        (
            "manifest",
            validate_manifest(read_manifest(args.manifest))
            if args.manifest
            else [],
        ),
        (
            "collapsed",
            check_collapsed(args.collapsed) if args.collapsed else [],
        ),
        ("tables", check_tables(args.tables) if args.tables else []),
    ):
        for problem in problems:
            print(f"{label}: {problem}", file=sys.stderr)
            failures += 1
    if failures:
        print(f"{failures} schema problem(s) found", file=sys.stderr)
        return 1
    print("observability artifacts OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
