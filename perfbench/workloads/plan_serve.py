"""Open-loop ``/plan`` traffic against a spawned planning server.

The server is ``python -m repro.experiments serve --workers 1`` with a
SQLite store and a memory tier smaller than the popular key set. Arrivals
are open-loop (independent users): a fixed number of requests at times
drawn uniformly over each phase, which is a Poisson process conditioned on
its count, at a light and a heavy rate and then up a ladder of rates to
find the highest one the server sustains without a growing backlog.

Keys follow a Zipf popularity over :data:`POPULAR_KEYS` searches (all
warmed into the store during set-up, only :data:`MEM_ENTRIES` of which fit
in memory), plus a fixed share of keys never seen before. Reads are memory
and store hits; writes are cold searches that run ``core.optimizer``
stacked scoring under the ``StackedScorer`` barrier and then insert into
the store, so a cache or batching change that helps hits but slows misses
shows. No link physics runs here.

No recorded plan traffic exists, so the mix is assumed, not measured:
the Zipf exponent, the share of new keys, the popular-key count against
the memory tier, the uniform spread over media and depths, and the light
and heavy rates are each unverified assumptions (Zipf-like popularity is
the shape web-cache traces show; its parameters here are not taken from
any trace). Every run reports the share of hits and cold searches behind
``rate_per_s``, so a later change knows which mix it is judged on.
"""

import argparse
import asyncio
import json
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import common, spans
from perfbench.hooks import HOOKS
from tools import loadgen

ROOT = Path(__file__).resolve().parents[2]
HOST = "127.0.0.1"
FAMILIES = (
    {"kind": "peak", "n_antennas": 4},
    {"kind": "peak", "n_antennas": 6},
    {"kind": "conduction", "n_antennas": 4, "threshold": 0.5},
)
SEARCH = {
    "n_draws": 16,
    "grid_size": 1024,
    "n_candidates": 16,
    "refine_rounds": 1,
    "refine_steps": [1, 2, 5],
}
TARGETS = (
    {"medium": "muscle", "depth_m": 0.05},
    {"medium": "muscle", "depth_m": 0.1},
    {"medium": "gastric fluid", "depth_m": 0.08},
    {"medium": "intestinal fluid", "depth_m": 0.1},
    {},
)
# The traffic mix: assumptions (see the module docstring).
SEEDS_PER_FAMILY = 16
POPULAR_KEYS = len(FAMILIES) * SEEDS_PER_FAMILY
MEM_ENTRIES = 16
ZIPF_EXPONENT = 1.0
NEW_KEY_SHARE = 0.08
NEW_KEY_SEED_BASE = 1_000_000  # popular keys use seeds below this

# Phase lengths are shares of --seconds. On a 2-core host the server's
# p90 passes 250 ms between 250 and 750 requests/s depending on how busy
# the host is, so the heavy rate stays under the knee even on a slow host
# and the ladder spans both ends.
LIGHT_RATE = 25.0
LIGHT_SHARE = 0.1
HEAVY_RATE = 100.0
HEAVY_SHARE = 0.3
LADDER_START = 160.0
LADDER_RATIO = 1.25
LADDER_STEPS = 8
LADDER_STEP_SHARE = 0.07
# The ladder stops once the median passes twice BACKLOG_LIMIT_MS (most
# requests wait: a growing backlog). The rate where the p90 crosses
# TAIL_LIMIT_MS and the one where the median crosses BACKLOG_LIMIT_MS are
# both reported; over HTTP they swing up to twofold with how busy the
# host is, so the bounded rate is the in-process saturated one.
BACKLOG_LIMIT_MS = 50.0
TAIL_LIMIT_MS = 250.0
LADDER_STOP_MS = 2 * BACKLOG_LIMIT_MS
SATURATION_IN_FLIGHT = 32
SATURATION_REQUESTS = 1440  # per sample, drawn like the heavy phase
SATURATION_PHASE = 100  # the samples' schedule index, apart from the ladder's
LIGHT_PERCENTILE = 75.0  # phases last at least 2 s light, 2.5 s heavy,
HEAVY_PERCENTILE = 95.0  # so ten requests lie beyond each percentile
LADDER_PERCENTILE = 90.0
REQUEST_TIMEOUT_S = 10.0
NEW_KEY_CHECKS = 6
SOURCES = ("memory", "store", "disk", "computed", "coalesced")


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    directory: str


@dataclass
class Record:
    """One request as sent and answered."""

    payload: Dict
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    response: Optional[Dict] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.error

    def latency_s(self) -> float:
        """From when it was due; a failure counts as the timeout."""
        return self.done - self.due if self.ok else REQUEST_TIMEOUT_S


# -- the traffic --------------------------------------------------------------


def _payload(family: int, seed: int, target: int) -> Dict:
    return {**FAMILIES[family], **SEARCH, "seed": seed, **TARGETS[target]}


def popular_payloads() -> List[Dict]:
    return [
        _payload(family, seed, 0)
        for family in range(len(FAMILIES))
        for seed in range(SEEDS_PER_FAMILY)
    ]


@dataclass
class Traffic:
    """Seeded request schedules; new keys never repeat within a run."""

    seed: int
    _new: int = 0
    _rank: np.ndarray = field(init=False)

    def __post_init__(self):
        rng = np.random.default_rng([self.seed, 0])
        self._rank = rng.permutation(POPULAR_KEYS)

    def schedule(self, phase: int, rate: float, seconds: float) -> List[Record]:
        """``rate * seconds`` requests; exactly :data:`NEW_KEY_SHARE` of them
        (rounded) carry new keys, spread evenly over the families, so every
        seed asks for the same amount of cold work."""
        rng = np.random.default_rng([self.seed, 1 + phase])
        count = max(1, int(round(rate * seconds)))
        times = np.sort(rng.uniform(0.0, seconds, size=count))
        weights = 1.0 / np.arange(1, POPULAR_KEYS + 1) ** ZIPF_EXPONENT
        weights /= weights.sum()
        n_new = int(round(NEW_KEY_SHARE * count))
        new_at = set(rng.choice(count, size=n_new, replace=False).tolist())
        families = rng.permutation(np.arange(n_new) % len(FAMILIES)).tolist()
        records = []
        for index, due in enumerate(times):
            target = int(rng.integers(len(TARGETS)))
            if index in new_at:
                family = families.pop()
                seed = NEW_KEY_SEED_BASE + self.seed * 100_000 + self._new
                self._new += 1
            else:
                key = int(self._rank[rng.choice(POPULAR_KEYS, p=weights)])
                family, seed = divmod(key, SEEDS_PER_FAMILY)
            records.append(Record(_payload(family, seed, target), float(due)))
        return records


# -- HTTP client --------------------------------------------------------------

HTTP_ERRORS = (
    OSError,
    asyncio.IncompleteReadError,
    asyncio.LimitOverrunError,
    RuntimeError,  # a malformed status line
    ValueError,  # a body that is not JSON
)


async def _send(port: int, record: Record, clock) -> None:
    record.sent = clock()
    try:
        record.status, record.response = await asyncio.wait_for(
            loadgen.http_json(HOST, port, "POST", "/plan", record.payload),
            REQUEST_TIMEOUT_S,
        )
    except (asyncio.TimeoutError, *HTTP_ERRORS) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    record.done = clock()


async def _open_loop(records: Sequence[Record], submit, clock) -> None:
    """Start each request when due, whatever is still outstanding."""
    start = clock() + 0.02
    tasks = []
    for record in records:
        record.due += start
        delay = record.due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(submit(record)))
    await asyncio.gather(*tasks)


def drive(port: int, records: Sequence[Record]) -> None:
    async def run():
        loop = asyncio.get_running_loop()
        await _open_loop(records, lambda r: _send(port, r, loop.time), loop.time)

    asyncio.run(run())


def _get(port: int, path: str, method: str = "GET") -> Dict:
    return asyncio.run(loadgen.http_json(HOST, port, method, path, None))[1]


# -- server lifecycle -----------------------------------------------------------


def _start_server() -> Server:
    out_dir = ROOT / "perfbench" / ".out"
    out_dir.mkdir(parents=True, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="serve-", dir=out_dir)
    options = argparse.Namespace(  # the serve CLI's defaults, bar the tiers
        host=HOST, workers=1, flush_ms=10.0, max_batch=32,
        store=str(Path(directory) / "plans.sqlite"), store_max_entries=None,
        mem_entries=MEM_ENTRIES, trace_out=None, metrics_out=None,
    )
    try:
        process, _, port = loadgen.spawn_server(options)
    except BaseException:
        shutil.rmtree(directory, ignore_errors=True)
        raise
    return Server(process, port, directory)


def _warm(port: int) -> None:
    # One request at a time: concurrent cold searches are stacked in one
    # batch, and how many land together depends on timing, which moved
    # the warm server's peak memory between 158 and 184 MB over ten seeds.
    records = [Record(payload, 0.0) for payload in popular_payloads()]
    for record in records:
        drive(port, [record])
    bad = [r for r in records if not r.ok]
    if bad:
        raise RuntimeError(f"warm-up failed: {bad[0].status} {bad[0].error}")


def setup() -> Server:
    server = _start_server()
    try:
        _warm(server.port)
    except BaseException:
        teardown(server)
        raise
    return server


def teardown(server: Server) -> None:
    try:
        _get(server.port, "/shutdown", "POST")
    except HTTP_ERRORS:
        pass
    try:
        server.process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        server.process.kill()
        server.process.wait(timeout=30)
    server.process.stdout.close()
    shutil.rmtree(server.directory, ignore_errors=True)


# -- checks ---------------------------------------------------------------------


def check(records: Sequence[Record]) -> Tuple[List[str], Dict[str, str]]:
    """Schema of every answered response, and one plan per key whatever
    tier served it. Returns ``(errors, key -> result JSON)``."""
    from repro.serve.service import parse_request

    errors: List[str] = []
    plans: Dict[str, str] = {}
    for record in records:
        if not record.ok:
            continue
        response = record.response
        problems = _schema(record.payload, response)
        if problems:
            errors.append(f"response schema: {problems[0]}")
            record.error = "schema-invalid response"  # counts as failed
            continue
        key = parse_request(record.payload).key
        if response["key"] != key:
            errors.append(f"response key {response['key'][:12]} != {key[:12]}")
        text = json.dumps(response["result"], sort_keys=True)
        if plans.setdefault(key, text) != text:
            errors.append(f"key {key[:12]} got two different plans")
    return sorted(set(errors)), plans


def _schema(payload: Dict, response) -> List[str]:
    """The load generator's schema check, plus what this traffic fixes:
    the kind asked for, a known source, one offset per antenna, and a
    power answer exactly when a medium and depth were asked for."""
    result = response.get("result") if isinstance(response, dict) else None
    if not isinstance(result, dict) or not isinstance(result.get("plan"), dict):
        return ["response has no result object with a plan"]
    problems = loadgen.validate_response(response)
    if problems:
        return problems
    if response["kind"] != payload["kind"]:
        problems.append("kind differs from the request")
    if response["source"] not in SOURCES:
        problems.append(f"unknown source {response['source']!r}")
    offsets = result["plan"]["offsets_hz"]
    if not isinstance(offsets, list) or len(offsets) != payload["n_antennas"]:
        problems.append("plan size differs from n_antennas")
    if ("medium" in payload) != isinstance(response.get("power"), dict):
        problems.append("power answer present iff medium/depth requested")
    return problems


def cold_plans(payloads: Sequence[Dict]) -> Tuple[Dict[str, str], List[float]]:
    """Plans computed cold in this process (no cache, no batching)."""
    from repro.runtime.cache import (
        PlanCache,
        optimized_conduction_plan,
        optimized_plan,
        result_to_json,
    )
    from repro.serve.service import parse_request

    plans, seconds = {}, []
    for payload in payloads:
        request = parse_request(payload)
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
            cache=PlanCache(enabled=False),
        )
        start = time.perf_counter()
        if request.kind == "conduction":
            result = optimized_conduction_plan(threshold=request.threshold, **kwargs)
        else:
            result = optimized_plan(**kwargs)
        seconds.append(time.perf_counter() - start)
        plans[request.key] = json.dumps(result_to_json(result), sort_keys=True)
    return plans, seconds


def cold_pass() -> Tuple[Dict[str, str], float]:
    """Cold plans of every popular key, and their serial seconds (the same
    work on every run)."""
    plans, seconds = cold_plans(popular_payloads())
    return plans, sum(seconds)


def verify(
    records: Sequence[Record], popular: Dict[str, str]
) -> Tuple[List[str], Dict[str, str]]:
    """All checks: schema, one plan per key, and cold searches matching.

    ``popular`` holds the popular keys' cold plans; the first
    :data:`NEW_KEY_CHECKS` new keys are searched cold here. Returns the
    errors and the served plans.
    """
    errors, plans = check(records)
    new = [r.payload for r in records if r.payload["seed"] >= NEW_KEY_SEED_BASE]
    fresh, _ = cold_plans(new[:NEW_KEY_CHECKS])
    for key, text in {**popular, **fresh}.items():
        if key in plans and plans[key] != text:
            errors.append(f"key {key[:12]}: served plan differs from a cold search")
    return errors, plans


# -- metrics ---------------------------------------------------------------------


def phase_stats(records: Sequence[Record], percentile: float) -> Dict[str, float]:
    """Latency (from when due) and generator lateness of one phase."""
    lateness = [r.sent - r.due for r in records]
    return {
        **common.latency_stats([r.latency_s() for r in records], percentile),
        "failed": sum(not r.ok for r in records),
        "lateness_p50_ms": common.median(lateness) * 1e3,
        "lateness_max_ms": max(lateness) * 1e3,
    }


def monotone(values: Sequence[float]) -> List[float]:
    """Least-squares non-decreasing fit (pool adjacent violators)."""
    blocks: List[List[float]] = []  # [mean, weight]
    for value in values:
        blocks.append([value, 1.0])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            mean, weight = blocks.pop()
            blocks[-1][0] = (blocks[-1][0] * blocks[-1][1] + mean * weight) / (
                blocks[-1][1] + weight
            )
            blocks[-1][1] += weight
    return [mean for mean, weight in blocks for _ in range(int(weight))]


def max_rate(steps: Sequence[Tuple[float, float]], limit_ms: float) -> float:
    """Highest rate whose latency meets ``limit_ms``, interpolated.

    ``steps`` are ``(rate, latency_ms)`` in increasing rate. Latency grows
    with load, so a step that reads lower than a slower one is noise: the
    latencies are first fitted non-decreasing in the rate. The answer is
    where the fit, linear between the last step at or under the limit and
    the next, reaches it; below the first step the first rate is scaled
    down by its overshoot, and past the last step it is the last rate.
    """
    rates = [rate for rate, _ in steps]
    latencies = monotone([latency for _, latency in steps])
    passing = [i for i, ms in enumerate(latencies) if ms <= limit_ms]
    if not passing:
        return rates[0] * limit_ms / latencies[0]
    a = passing[-1]
    if a == len(latencies) - 1:
        return rates[a]
    b = a + 1
    return rates[a] + (limit_ms - latencies[a]) * (rates[b] - rates[a]) / (
        latencies[b] - latencies[a]
    )


def _phases(seed: int, seconds: float) -> Tuple[Traffic, List[Record], List[Record]]:
    traffic = Traffic(seed)
    light = traffic.schedule(0, LIGHT_RATE, max(2.0, LIGHT_SHARE * seconds))
    heavy = traffic.schedule(1, HEAVY_RATE, max(2.5, HEAVY_SHARE * seconds))
    return traffic, light, heavy


def _sources(records: Sequence[Record]) -> Dict[str, int]:
    counts = {source: 0 for source in SOURCES}
    for record in records:
        if record.ok and record.response.get("source") in counts:
            counts[record.response["source"]] += 1
    return counts


def _digest(plans: Dict[str, str], records: Sequence[Record]) -> str:
    """Digest of the plans served for the seeded light and heavy phases."""
    from repro.serve.service import parse_request

    keys = sorted({parse_request(r.payload).key for r in records})
    return common.digest([[key, plans.get(key)] for key in keys])


def measure(server: Server, seed: int, seconds: float) -> Dict:
    # The host's speed shifts over seconds, so the saturation samples are
    # spread over the run (start, after the light, heavy and ladder phases)
    # and their rate follows its typical speed.
    units: List[Tuple[float, float]] = []
    saturation: List[Record] = []
    clock = common.HostSpeed()

    def saturation_sample() -> None:
        records = Traffic(seed).schedule(
            SATURATION_PHASE, HEAVY_RATE, SATURATION_REQUESTS / HEAVY_RATE
        )
        directory = tempfile.mkdtemp(prefix="saturate-", dir=server.directory)
        clock.sample()
        units.append(saturated_interval(records, directory))
        clock.sample()
        saturation.extend(records)

    popular, cold_s = cold_pass()
    saturation_sample()
    traffic, light, heavy = _phases(seed, seconds)
    drive(server.port, light)
    # The server's peak memory once warm, at a rate it keeps up with: the
    # heavy phase and the ladder add a backlog whose size, and so memory,
    # varies with how busy the host is. This process is left out: its
    # in-process service runs are part of the benchmark, not the server.
    rss_mb = common.vm_hwm_mb(server.process.pid)
    saturation_sample()
    drive(server.port, heavy)
    rss_heavy_mb = common.vm_hwm_mb(server.process.pid)
    saturation_sample()
    ladder: List[Tuple[float, float, float]] = []
    ladder_records: List[Record] = []
    for index in range(LADDER_STEPS):
        rate = LADDER_START * LADDER_RATIO ** index
        records = traffic.schedule(2 + index, rate, LADDER_STEP_SHARE * seconds)
        drive(server.port, records)
        ladder_records.extend(records)
        latencies = [r.latency_s() * 1e3 for r in records]
        p50_ms = common.median(latencies)
        ladder.append((rate, p50_ms, common.percentile(latencies, LADDER_PERCENTILE)))
        if p50_ms > LADDER_STOP_MS:
            break
    saturation_sample()
    everything = light + heavy + ladder_records + saturation
    behind_rate = _sources(saturation)
    errors, plans = verify(everything, popular)
    return {
        "attempted": len(everything),
        "failed": sum(not r.ok for r in everything),
        "errors": errors,
        "digest": _digest(plans, light + heavy),
        "metrics": {
            # All the samples' requests over all their time, at the
            # reference host speed.
            "rate_per_s": len(saturation)
            / sum(clock.scaled(*unit) for unit in units),
            "peak_rss_mb": rss_mb,
        },
        "report": {
            "saturated_rates_per_s": [
                SATURATION_REQUESTS / (end - start) for start, end in units
            ],
            "reference_kernel_s": common.median(clock.seconds),
            "cold_pass_s": cold_s,
            "server_peak_rss_after_heavy_mb": rss_heavy_mb,
            "saturated_sources": behind_rate,
            "saturated_cold_share": (
                behind_rate["computed"] + behind_rate["coalesced"]
            ) / max(1, sum(behind_rate.values())),
            "tail_limit_ms": TAIL_LIMIT_MS,
            "plan_max_rate_per_s": max_rate(
                [(r, tail) for r, _, tail in ladder], TAIL_LIMIT_MS
            ),
            "backlog_limit_ms": BACKLOG_LIMIT_MS,
            "max_rate_below_backlog_limit_per_s": max_rate(
                [(r, p50) for r, p50, _ in ladder], BACKLOG_LIMIT_MS
            ),
            "ladder_rate_p50_p90_ms": ladder,
            "light": phase_stats(light, LIGHT_PERCENTILE),
            "heavy": phase_stats(heavy, HEAVY_PERCENTILE),
            "sources": _sources(light + heavy + ladder_records),
        },
    }


def _in_process(directory: str, body):
    """Run ``await body(submit)`` against a fresh in-process service,
    warmed with the server's popular keys (sent all at once), where
    ``submit(record)`` serves one record through ``PlanService.submit``.

    Returns the service's observability context and ``body``'s result.
    """
    from repro.obs.context import obs_context
    from repro.serve.service import PlanService, ServeConfig, parse_request

    async def run(obs):
        service = PlanService(
            ServeConfig(
                workers=1,
                store_path=str(Path(directory) / "plans.sqlite"),
                mem_entries=MEM_ENTRIES,
            ),
            obs=obs,
        )
        loop = asyncio.get_running_loop()

        async def submit(record: Record) -> None:
            record.sent = loop.time()
            try:
                record.response = await service.submit(parse_request(record.payload))
                record.status = 200
            except Exception as exc:  # noqa: BLE001 - counted as failed
                record.error = f"{type(exc).__name__}: {exc}"
            record.done = loop.time()

        try:
            warm = [Record(payload, 0.0) for payload in popular_payloads()]
            await _open_loop(warm, submit, loop.time)
            return await body(submit)
        finally:
            await service.close()

    with obs_context() as obs:
        result = asyncio.run(run(obs))
    return obs, result


def _replay(phases: Sequence[Sequence[Record]], directory: str):
    """Replay each phase on its schedule in process; returns the
    observability context and the replay's wall interval."""

    async def body(submit):
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        for records in phases:
            await _open_loop(records, submit, loop.time)
        return start, time.perf_counter()

    return _in_process(directory, body)


def saturated_interval(
    records: Sequence[Record], directory: str
) -> Tuple[float, float]:
    """Wall interval in which an in-process service completes ``records``
    with :data:`SATURATION_IN_FLIGHT` requests always outstanding."""

    async def body(submit):
        slots = asyncio.Semaphore(SATURATION_IN_FLIGHT)

        async def one(record):
            async with slots:
                await submit(record)

        start = time.perf_counter()
        await asyncio.gather(*(one(record) for record in records))
        return start, time.perf_counter()

    return _in_process(directory, body)[1]


def _batch_wait_s(recorded: Sequence[spans.Span]) -> float:
    """Time requests spent in ``MicroBatcher.submit`` outside the batch
    that computed them."""
    batches = [s for s in recorded if s.name == "serve.batch"]
    total = 0.0
    for span in recorded:
        if span.name != "serve.batcher_submit":
            continue
        inside = 0.0
        for batch in batches:
            if span.tag in batch.tag and batch.start < span.end and span.start < batch.end:
                inside = min(span.end, batch.end) - max(span.start, batch.start)
                break
        total += span.end - span.start - inside
    return total


def trace(server: Server, seed: int, seconds: float) -> Dict:
    """Counts from the HTTP run; layer times from an in-process replay."""
    _, light, heavy = _phases(seed, seconds)
    before = _get(server.port, "/stats")["batcher"]
    drive(server.port, light)
    drive(server.port, heavy)
    after = _get(server.port, "/stats")["batcher"]
    served = light + heavy
    errors, plans = check(served)
    sources = _sources(served)
    batches = after["batches"] - before["batches"]
    items = after["items"] - before["items"]

    replays = []
    recorder = spans.Recorder()
    for hooks in ((), HOOKS):  # untraced first, then the same replay traced
        _, light_r, heavy_r = _phases(seed, seconds)
        directory = tempfile.mkdtemp(prefix="replay-", dir=server.directory)
        with recorder.installed(hooks):
            obs, wall = _replay((light_r, heavy_r), directory)
        replays.append((light_r + heavy_r, obs, wall))
        replay_errors, replay_plans = check(light_r + heavy_r)
        errors.extend(replay_errors)
        if any(replay_plans.get(k, v) != v for k, v in plans.items()):
            errors.append("in-process replay served a different plan")
    (untraced_records, _, untraced_wall), (traced_records, obs, wall) = replays
    latency = [sum(r.latency_s() for r in rs) for rs in (untraced_records, traced_records)]
    answered = sum(sources.values())
    counts = {
        **{f"serve.source.{s}": sources[s] for s in ("memory", "store", "computed", "coalesced")},
        "serve.hit_ratio": (sources["memory"] + sources["store"] + sources["disk"])
        / max(1, answered),
        "serve.batches": batches,
        "serve.batch_occupancy": items / max(1, batches),
        "core.candidates_scored": obs.metrics.counters().get("search.candidates_scored", 0),
        "serve.batch_wait_s": _batch_wait_s(recorder.spans),
    }
    everything = served + untraced_records + traced_records
    return {
        "recorder": recorder,
        "wall": wall,
        "untraced_s": untraced_wall[1] - untraced_wall[0],
        # Open-loop replays last as long as their schedule whether traced
        # or not, so the overhead is the one on request latency.
        "overhead_pct": 100.0 * (latency[1] / latency[0] - 1.0),
        "counts": counts,
        "attempted": len(everything),
        "failed": sum(not r.ok for r in everything),
        "errors": sorted(set(errors)),
        "digest": _digest(plans, served),
    }
