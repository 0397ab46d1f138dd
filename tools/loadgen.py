#!/usr/bin/env python
"""Load generator for the planning server.

Usage::

    # against an already-running server
    python tools/loadgen.py --port 8787 --requests 50 --concurrency 8

    # spawn a server (ephemeral port), drive it, shut it down
    python tools/loadgen.py --spawn --workers 2 --requests 50 \
        --store plans.sqlite --trace-out serve_trace.jsonl \
        --metrics-out serve_metrics.json --report loadgen.json

Drives a deterministic mixed workload -- peak and conduction plans over a
handful of distinct search keys, each asked for at several media/depths,
so the server sees exactly the coalescing opportunities production traffic
would -- at bounded concurrency, validates every response's schema, and
reports throughput (plans/s) and latency quantiles (p50/p99 ms).

``--spawn`` starts ``python -m repro.experiments serve --port 0 ...`` as a
subprocess, parses the ``SERVE_READY {json}`` stdout line for the bound
port, and posts ``/shutdown`` when done, so CI can smoke the whole serving
path in one command.
"""

import argparse
import asyncio
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

READY_PREFIX = "SERVE_READY "

# Distinct search keys (seed and size vary), each served at several
# media/depths that share the search -- the coalescing the batcher exploits.
_SEARCHES = (
    {"kind": "peak", "n_antennas": 4, "seed": 0},
    {"kind": "peak", "n_antennas": 6, "seed": 1},
    {"kind": "conduction", "n_antennas": 4, "seed": 0, "threshold": 0.5},
    {"kind": "peak", "n_antennas": 4, "seed": 2},
)

_TARGETS = (
    {"medium": "muscle", "depth_m": 0.05},
    {"medium": "muscle", "depth_m": 0.1},
    {"medium": "gastric fluid", "depth_m": 0.08},
    {},  # no power-at-depth answer requested
    {"medium": "muscle", "depth_m": 0.14},
)


def build_requests(
    count: int, n_draws: int, grid_size: int, n_candidates: int
) -> List[Dict[str, Any]]:
    """The deterministic request mix (searches x media/depths, cycled)."""
    requests = []
    for index in range(count):
        search = _SEARCHES[index % len(_SEARCHES)]
        target = _TARGETS[(index // len(_SEARCHES)) % len(_TARGETS)]
        requests.append(
            {
                **search,
                **target,
                "n_draws": n_draws,
                "grid_size": grid_size,
                "n_candidates": n_candidates,
                "refine_rounds": 1,
                "refine_steps": [1, 2, 5],
            }
        )
    return requests


async def http_json(
    host: str, port: int, method: str, path: str, payload: Optional[dict]
) -> Tuple[int, Dict[str, Any]]:
    """One HTTP request against the (Connection: close) planning server."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
            + body
        )
        await writer.drain()
        # Read the Content-Length-bounded body rather than to EOF: exact
        # framing keeps the client correct even if some other process
        # (e.g. a forked worker) still holds a duplicate of the
        # connection fd and the close never yields an end-of-stream.
        head = await reader.readuntil(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].split(b" ")
        if len(status_line) < 2:
            raise RuntimeError(f"malformed response: {head[:200]!r}")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        response_body = await reader.readexactly(length)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    return int(status_line[1]), json.loads(response_body)


def validate_response(payload: Dict[str, Any]) -> List[str]:
    """Schema problems of one /plan response (empty list = valid)."""
    problems = []
    if payload.get("status") != "ok":
        problems.append(f"status is {payload.get('status')!r}")
    for field in ("key", "kind", "source", "search_rev", "result"):
        if field not in payload:
            problems.append(f"missing field {field!r}")
    result = payload.get("result") or {}
    for field in ("plan", "expected_peak"):
        if field not in result:
            problems.append(f"result missing {field!r}")
    plan = result.get("plan") or {}
    for field in ("center_frequency_hz", "offsets_hz"):
        if field not in plan:
            problems.append(f"result plan missing {field!r}")
    return problems


async def drive(
    host: str,
    port: int,
    requests: List[Dict[str, Any]],
    concurrency: int,
) -> Dict[str, Any]:
    """Send the workload at bounded concurrency; gather the report."""
    semaphore = asyncio.Semaphore(concurrency)
    latencies_ms: List[float] = []
    sources: Dict[str, int] = {}
    problems: List[str] = []

    async def one(index: int, payload: Dict[str, Any]) -> None:
        async with semaphore:
            began = time.perf_counter()
            status, response = await http_json(
                host, port, "POST", "/plan", payload
            )
            latencies_ms.append((time.perf_counter() - began) * 1e3)
            if status != 200:
                problems.append(
                    f"request {index}: HTTP {status}: {response}"
                )
                return
            for problem in validate_response(response):
                problems.append(f"request {index}: {problem}")
            source = response.get("source", "?")
            sources[source] = sources.get(source, 0) + 1

    began = time.perf_counter()
    await asyncio.gather(
        *(one(index, payload) for index, payload in enumerate(requests))
    )
    elapsed_s = time.perf_counter() - began
    ordered = sorted(latencies_ms)
    report = {
        "requests": len(requests),
        "concurrency": concurrency,
        "elapsed_s": round(elapsed_s, 3),
        "plans_per_s": round(len(requests) / elapsed_s, 3),
        "latency_ms": {
            "p50": round(statistics.median(ordered), 3) if ordered else None,
            "p99": (
                round(ordered[max(0, int(len(ordered) * 0.99) - 1)], 3)
                if ordered
                else None
            ),
            "max": round(ordered[-1], 3) if ordered else None,
        },
        "sources": dict(sorted(sources.items())),
        "problems": problems,
    }
    status, stats = await http_json(host, port, "GET", "/stats", None)
    if status == 200:
        report["server_stats"] = stats
    return report


def spawn_server(args) -> Tuple[subprocess.Popen, str, int]:
    """Start a planning server subprocess; returns (proc, host, port).

    The server runs from the repository root, so its output paths are
    resolved against the caller's working directory first, where
    ``--report`` lands too.
    """
    repo = Path(__file__).resolve().parent.parent
    command = [
        sys.executable,
        "-m",
        "repro.experiments",
        "serve",
        "--host",
        args.host,
        "--port",
        "0",
        "--workers",
        str(args.workers),
        "--flush-ms",
        str(args.flush_ms),
        "--max-batch",
        str(args.max_batch),
    ]
    for flag, value in (
        ("--store", args.store),
        ("--trace-out", args.trace_out),
        ("--metrics-out", args.metrics_out),
    ):
        if value is not None:
            command.extend([flag, str(Path(value).resolve())])
    for flag, value in (
        ("--store-max-entries", args.store_max_entries),
        ("--mem-entries", args.mem_entries),
    ):
        if value is not None:
            command.extend([flag, str(value)])
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        command,
        cwd=str(repo),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 120
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited before ready (rc={proc.poll()})"
            )
        if line.startswith(READY_PREFIX):
            ready = json.loads(line[len(READY_PREFIX):])
            return proc, ready["host"], int(ready["port"])
    proc.kill()
    raise RuntimeError("server never printed SERVE_READY")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8787, help="server port (ignored with --spawn)"
    )
    parser.add_argument(
        "--spawn",
        action="store_true",
        help="spawn a server subprocess on an ephemeral port, drive it, "
        "then shut it down",
    )
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument(
        "--workers", type=int, default=1, help="spawned server's --workers"
    )
    parser.add_argument("--flush-ms", type=float, default=10.0)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--store", help="spawned server's --store path")
    parser.add_argument("--store-max-entries", type=int)
    parser.add_argument("--mem-entries", type=int)
    parser.add_argument(
        "--trace-out", help="spawned server's trace JSONL output"
    )
    parser.add_argument(
        "--metrics-out", help="spawned server's metrics JSON output"
    )
    parser.add_argument(
        "--n-draws", type=int, default=12, help="per-request draw count"
    )
    parser.add_argument("--grid-size", type=int, default=2048)
    parser.add_argument("--n-candidates", type=int, default=16)
    parser.add_argument("--report", help="write the JSON report here")
    args = parser.parse_args(argv)
    if args.requests < 1 or args.concurrency < 1:
        parser.error("--requests and --concurrency must be >= 1")

    proc = None
    host, port = args.host, args.port
    try:
        if args.spawn:
            proc, host, port = spawn_server(args)
            print(f"spawned server pid={proc.pid} on {host}:{port}")
        requests = build_requests(
            args.requests, args.n_draws, args.grid_size, args.n_candidates
        )
        report = asyncio.run(drive(host, port, requests, args.concurrency))
    finally:
        if proc is not None:
            try:
                asyncio.run(
                    http_json(host, port, "POST", "/shutdown", {})
                )
            except Exception:
                proc.kill()
            if proc.stdout is not None:
                proc.stdout.read()
            proc.wait(timeout=120)

    print(json.dumps(report, indent=2, sort_keys=True))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if report["problems"]:
        print(
            f"{len(report['problems'])} problem(s) found", file=sys.stderr
        )
        return 1
    print(
        f"loadgen OK: {report['plans_per_s']} plans/s, "
        f"p50 {report['latency_ms']['p50']} ms, "
        f"p99 {report['latency_ms']['p99']} ms"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
