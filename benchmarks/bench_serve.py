"""Bench: planning-as-a-service throughput (cross-request batching).

A production mix -- several media/depth targets riding on a handful of
distinct searches -- is served two ways:

* **serialized**: each request computed cold, one at a time, caches off --
  the per-request cost a naive service would pay; and
* **batched**: the same requests submitted concurrently to a
  :class:`~repro.serve.service.PlanService`, whose micro-batcher collapses
  same-key requests into one search and co-stacks the distinct searches'
  scoring rounds into shared IFFT calls.

``test_serve_throughput_gate`` holds the batched service to a >= 3x
plans/s advantage while asserting every response is **bit-identical** to
its serialized cold computation -- batching may only change when work
runs, never what a request gets back. The run's plans/s, p50/p99 latency
and batch occupancy land in ``BENCH_runtime.json``.
"""

import asyncio
import statistics
import time

from repro.experiments.report import Table
from repro.runtime.cache import (
    PlanCache,
    optimized_conduction_plan,
    optimized_plan,
    result_to_json,
)
from repro.serve.service import PlanRequest, PlanService, ServeConfig, parse_request
from conftest import run_once

SPEEDUP_GATE = 3.0

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
    {},
    {"medium": "muscle", "depth_m": 0.14},
    {"medium": "gastric fluid", "depth_m": 0.12},
    {"medium": "intestinal fluid", "depth_m": 0.1},
    {"medium": "muscle", "depth_m": 0.02},
)


def _request_mix(count: int = 32):
    """``count`` validated requests cycling searches x media/depths."""
    requests = []
    for index in range(count):
        payload = {
            **_SEARCHES[index % len(_SEARCHES)],
            **_TARGETS[(index // len(_SEARCHES)) % len(_TARGETS)],
            "n_draws": 16,
            "grid_size": 2048,
            "n_candidates": 24,
            "refine_rounds": 1,
            "refine_steps": [1, 2, 5],
        }
        requests.append(parse_request(payload))
    return requests


def _serial_plan(request: PlanRequest):
    """One request computed cold (no caching, no batching)."""
    cache = PlanCache(enabled=False)
    kwargs = dict(
        n_antennas=request.n_antennas,
        constraint=request.constraint(),
        center_frequency_hz=request.center_frequency_hz,
        n_draws=request.n_draws,
        grid_size=request.grid_size,
        seed=request.seed,
        n_candidates=request.n_candidates,
        refine_rounds=request.refine_rounds,
        refine_steps=request.refine_steps,
        cache=cache,
        islands=request.islands,
        workers=1,
        fault_token=request.fault_token,
        adaptive_token=request.adaptive_token,
    )
    if request.kind == "conduction":
        return optimized_conduction_plan(threshold=request.threshold, **kwargs)
    return optimized_plan(**kwargs)


async def _serve_all(requests, config: ServeConfig):
    service = PlanService(config)
    try:
        responses = await asyncio.gather(
            *(service.submit(request) for request in requests)
        )
    finally:
        await service.close()
    return responses, service


def test_serve_throughput_gate(benchmark, emit):
    requests = _request_mix(32)
    # Warm scipy/numpy FFT plan caches so neither side pays first-call cost.
    _serial_plan(requests[0])

    serial_began = time.perf_counter()
    serial_results = [_serial_plan(request) for request in requests]
    serial_wall = time.perf_counter() - serial_began

    state = {}

    def batched():
        responses, service = asyncio.run(
            _serve_all(
                requests,
                ServeConfig(flush_window_s=0.005, max_batch=64),
            )
        )
        state["responses"] = responses
        state["service"] = service
        return responses

    def extras():
        latencies = sorted(
            response["latency_ms"] for response in state["responses"]
        )
        batcher = state["service"].batcher
        return {
            "latency_p50_ms": round(statistics.median(latencies), 3),
            "latency_p99_ms": round(
                latencies[max(0, int(len(latencies) * 0.99) - 1)], 3
            ),
            "batch_occupancy": round(
                batcher.items / batcher.batches if batcher.batches else 0.0, 3
            ),
            "serial_wall_s": round(serial_wall, 4),
        }

    batched_began = time.perf_counter()
    responses = run_once(benchmark, batched, row_extra=extras)
    batched_wall = time.perf_counter() - batched_began
    speedup = serial_wall / batched_wall

    # Determinism: every response is bit-identical to its cold computation,
    # regardless of which batch/co-stacking schedule served it.
    for request, response, serial in zip(requests, responses, serial_results):
        assert response["result"] == result_to_json(serial), (
            f"served plan for {request.kind}/{request.n_antennas}/"
            f"seed={request.seed} differs from its cold computation"
        )

    sources = {}
    for response in responses:
        sources[response["source"]] = sources.get(response["source"], 0) + 1
    distinct = len({request.key for request in requests})
    latencies = sorted(response["latency_ms"] for response in responses)

    table = Table(
        "Planning-as-a-service -- serialized vs batched serving",
        ("quantity", "value"),
    )
    table.add_row("requests", len(requests))
    table.add_row("distinct searches", distinct)
    table.add_row("serialized wall (s)", serial_wall)
    table.add_row("batched wall (s)", batched_wall)
    table.add_row("speedup", speedup)
    table.add_row("batched plans/s", len(requests) / batched_wall)
    table.add_row("p50 latency (ms)", statistics.median(latencies))
    table.add_row(
        "p99 latency (ms)", latencies[max(0, int(len(latencies) * 0.99) - 1)]
    )
    table.add_row("sources", str(dict(sorted(sources.items()))))
    emit(table)

    assert sum(sources.values()) == len(requests)
    assert speedup >= SPEEDUP_GATE, (
        f"batched serving is only {speedup:.1f}x serialized "
        f"(gate: {SPEEDUP_GATE:.1f}x)"
    )


def test_serve_co_stacking_distinct_keys(benchmark, emit):
    """Informational: all-distinct-key batch vs the same searches solo.

    No gate -- with every request a different search there is no
    coalescing, only co-stacked scoring rounds. On one core the stacked
    IFFTs do the same FLOPs as solo scoring, so the ratio hovers around
    break-even (the barrier trades per-call overhead for sync overhead;
    its real upside is sharding rounds across a multi-worker pool). What
    this bench pins is the determinism contract: co-stacked results stay
    bit-identical to cold solo computation.
    """
    requests = [
        parse_request(
            {
                "kind": "peak",
                "n_antennas": 4,
                "seed": seed,
                "n_draws": 16,
                "grid_size": 2048,
                "n_candidates": 24,
                "refine_rounds": 1,
                "refine_steps": [1, 2, 5],
            }
        )
        for seed in range(6)
    ]
    _serial_plan(requests[0])
    serial_began = time.perf_counter()
    serial_results = [_serial_plan(request) for request in requests]
    serial_wall = time.perf_counter() - serial_began

    def batched():
        responses, _ = asyncio.run(
            _serve_all(
                requests,
                ServeConfig(flush_window_s=0.02, max_batch=32),
            )
        )
        return responses

    batched_began = time.perf_counter()
    responses = run_once(benchmark, batched)
    batched_wall = time.perf_counter() - batched_began

    for response, serial in zip(responses, serial_results):
        assert response["result"] == result_to_json(serial)

    table = Table(
        "Co-stacked scoring -- six distinct searches in one batch",
        ("quantity", "value"),
    )
    table.add_row("serialized wall (s)", serial_wall)
    table.add_row("co-stacked wall (s)", batched_wall)
    table.add_row("ratio", serial_wall / batched_wall)
    emit(table)
