"""The planning service: request schema, caching tiers, batch execution.

:class:`PlanService` is everything between the HTTP front-end and the
runtime. One request's life:

1. ``parse_request`` validates the JSON payload into a
   :class:`PlanRequest` -- a :class:`~repro.core.optimizer.SearchConfig`
   plus its tokens -- whose key is the *same*
   :func:`~repro.runtime.cache.search_key` the cached search uses, so
   every tier is addressed by exactly the key a cold search would store
   under.
2. The tiered :class:`~repro.runtime.cache.PlanCache` answers memory /
   SQLite-store hits immediately (``serve.store_hit`` spans mark
   store hits).
3. Misses dedup against in-flight computations of the same key, then park
   in the :class:`~repro.serve.batcher.MicroBatcher`. A flushed batch runs
   on a worker thread: same-key requests collapse into one search, and the
   batch's distinct searches run as one map of the service's
   :class:`~repro.runtime.runner.TrialRunner` -- in order on that thread
   at ``workers=1``, one search per pool task otherwise. A failed search
   answers its own requests only; the batch thread stores each plan in the
   cache tiers.
4. The response carries the plan, its provenance (``source``), and -- when
   the request names a medium and depth -- the Eq. 2/3 power-at-depth
   answer for the standard tag.

Determinism: per-request plans are bit-identical across all of solo
execution, any co-batching schedule, any worker count, and any cache tier
replay. The serve tests and ``benchmarks/bench_serve.py`` assert this.
"""

import asyncio
import itertools
import math
import time
from dataclasses import dataclass, fields
from functools import cached_property, partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.constraints import FlatnessConstraint
from repro.core.optimizer import (
    SEARCH_REV,
    OptimizationResult,
    SearchConfig,
    # perfbench/hooks.py wraps it here; test_benchmark_targets_resolve pins it.
    evaluate_stacked_specs,
)
from repro.em.media import MEDIA_LIBRARY
from repro.em.propagation import tissue_field_amplitude
from repro.errors import ConstraintViolationError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs.context import ObsContext, current_obs
from repro.runtime.adaptive import AdaptiveConfig
from repro.runtime.cache import (
    PlanCache,
    optimized_conduction_plan,
    optimized_plan,
    result_to_json,
    search_key,
)
from repro.runtime.runner import TrialRunner
from repro.sensors.tags import standard_tag_spec
from repro.serve.batcher import (
    DEFAULT_FLUSH_WINDOW_S,
    DEFAULT_MAX_BATCH,
    MicroBatcher,
)
from repro.serve.store import PlanStore

SERVE_LATENCY_EDGES = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
"""Bucket edges (seconds) of the ``serve.latency_s`` histogram."""

DEFAULT_EIRP_WATTS = 4.0
"""Default per-branch EIRP for power-at-depth answers (FCC-ish 36 dBm)."""

DEFAULT_AIR_DISTANCE_M = 0.1
"""Default antenna-to-phantom standoff for power-at-depth answers."""

MAX_GRID_SIZE = 65536
"""Largest ``grid_size`` a request may ask for: 4x the largest FFT grid
any in-repo caller uses (16384), and a bound on the search's memory."""

MAX_DRAWS = 256
MAX_CANDIDATES = 1024
MAX_REFINE_ROUNDS = 8
MAX_REFINE_STEPS = 16
MAX_ISLANDS = 16
"""Largest ``n_draws``, ``n_candidates``, ``refine_rounds``,
``len(refine_steps)`` and ``islands`` a request may ask for: several times
the largest in-repo use (48, 150, 2, 5 and 3); with ``MAX_GRID_SIZE`` they
bound one search's memory and time."""


class ServeRequestError(ValueError):
    """A malformed or unsatisfiable planning request (maps to HTTP 400)."""


@dataclass(frozen=True)
class PlanRequest(SearchConfig):
    """One validated planning request: its search plus what rides along.

    The :class:`SearchConfig` fields and the fault / adaptive tokens make
    the cache key; ``medium`` / ``depth_m`` / ``eirp_watts`` /
    ``air_distance_m`` only shape the power-at-depth answer computed
    *from* the plan, so requests for different depths in the same medium
    share one search -- the coalescing the batcher exploits.
    """

    fault_token: str = "none"
    adaptive_token: str = "none"
    medium: Optional[str] = None
    depth_m: Optional[float] = None
    eirp_watts: float = DEFAULT_EIRP_WATTS
    air_distance_m: float = DEFAULT_AIR_DISTANCE_M

    @cached_property
    def key(self) -> str:
        """The plan-cache key this request's search stores under."""
        return search_key(self, self.fault_token, self.adaptive_token)


_REQUEST_FIELDS = {
    "kind",
    "n_antennas",
    "threshold",
    "alpha",
    "query_duration_s",
    "center_frequency_hz",
    "n_draws",
    "grid_size",
    "seed",
    "n_candidates",
    "refine_rounds",
    "refine_steps",
    "islands",
    "fault_plan",
    "adaptive",
    "medium",
    "depth_m",
    "eirp_watts",
    "air_distance_m",
}


def _medium_key(name: str) -> str:
    return name.strip().lower().replace("_", " ")


def _positive_int(
    payload: Dict[str, Any], name: str, default: int, maximum: int
) -> int:
    value = payload.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ServeRequestError(f"{name} must be a positive integer")
    if value > maximum:
        raise ServeRequestError(f"{name} must be <= {maximum}")
    return value


def _number(payload: Dict[str, Any], name: str, default: float) -> float:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServeRequestError(f"{name} must be a number")
    if not math.isfinite(float(value)):
        raise ServeRequestError(f"{name} must be finite")
    return float(value)


def _fault_token(payload: Dict[str, Any]) -> str:
    """Build and token-ize the request's fault plan (``"none"`` default)."""
    raw = payload.get("fault_plan")
    if raw is None:
        return "none"
    if not isinstance(raw, list):
        raise ServeRequestError(
            "fault_plan must be a list of event objects"
        )
    events = []
    for entry in raw:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ServeRequestError(
                "each fault_plan event needs at least a 'kind'"
            )
        try:
            events.append(
                FaultEvent(
                    kind=str(entry["kind"]),
                    severity=float(entry.get("severity", 1.0)),
                    probability=float(entry.get("probability", 1.0)),
                    antennas=(
                        None
                        if entry.get("antennas") is None
                        else tuple(int(a) for a in entry["antennas"])
                    ),
                )
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ServeRequestError(f"bad fault_plan event: {exc}") from exc
    try:
        return FaultPlan(tuple(events)).cache_token()
    except Exception as exc:  # validation errors from the fault layer
        raise ServeRequestError(f"bad fault_plan: {exc}") from exc


def _adaptive_token(payload: Dict[str, Any]) -> str:
    """Token-ize the request's adaptive policy (``"none"`` default)."""
    raw = payload.get("adaptive")
    if raw is None:
        return "none"
    if not isinstance(raw, dict):
        raise ServeRequestError("adaptive must be an object")
    try:
        return AdaptiveConfig(
            ci_target=raw.get("ci_target"),
            ci_relative=raw.get("ci_relative"),
            confidence_z=float(raw.get("confidence_z", 1.96)),
            min_trials=int(raw.get("min_trials", 32)),
            batch_trials=int(raw.get("batch_trials", 32)),
            max_trials=raw.get("max_trials"),
        ).cache_token()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ServeRequestError(f"bad adaptive policy: {exc}") from exc


def parse_request(payload: Any) -> PlanRequest:
    """Validate a JSON payload into a :class:`PlanRequest`.

    Strict about field names (unknown keys are rejected so typos like
    ``n_antenna`` fail loudly instead of silently using a default) and
    about types; raises :class:`ServeRequestError` with a message the
    front-end returns as HTTP 400.
    """
    if not isinstance(payload, dict):
        raise ServeRequestError("request body must be a JSON object")
    unknown = set(payload) - _REQUEST_FIELDS
    if unknown:
        raise ServeRequestError(
            f"unknown request fields: {sorted(unknown)}"
        )
    if "n_antennas" not in payload:
        raise ServeRequestError("n_antennas is required")
    kind = payload.get("kind", "peak")
    if kind not in ("peak", "conduction"):
        raise ServeRequestError(
            f"kind must be 'peak' or 'conduction', got {kind!r}"
        )
    conduction = kind == "conduction"
    defaults = SearchConfig(1, kind, threshold=0.0 if conduction else None)
    grid_size = _positive_int(
        payload, "grid_size", defaults.grid_size, MAX_GRID_SIZE
    )
    # Every antenna needs its own offset bin below the grid's Nyquist bin.
    n_antennas = _positive_int(payload, "n_antennas", 0, grid_size // 2)
    threshold = _number(payload, "threshold", 0.0)
    if conduction and threshold < 0:
        raise ServeRequestError("threshold must be >= 0")
    alpha = _number(payload, "alpha", defaults.alpha)
    query_duration_s = _number(
        payload, "query_duration_s", defaults.query_duration_s
    )
    # The search builds its Eq. 9 budget from these two; one it cannot
    # build (alpha outside (0, 0.5], a duration with no finite budget) is
    # the client's error, not a failed search.
    try:
        FlatnessConstraint(alpha, query_duration_s)
    except ConstraintViolationError as exc:
        raise ServeRequestError(str(exc)) from exc
    medium = payload.get("medium")
    if medium is not None:
        if (
            not isinstance(medium, str)
            or _medium_key(medium) not in MEDIA_LIBRARY
        ):
            raise ServeRequestError(
                f"unknown medium {medium!r}; known: "
                f"{sorted(MEDIA_LIBRARY)}"
            )
        medium = _medium_key(medium)
    depth_m = payload.get("depth_m")
    if depth_m is not None:
        depth_m = _number(payload, "depth_m", 0.0)
        if depth_m < 0:
            raise ServeRequestError("depth_m must be >= 0")
        if medium is None:
            raise ServeRequestError("depth_m requires a medium")
    refine_steps = payload.get("refine_steps", defaults.refine_steps)
    if not isinstance(refine_steps, (list, tuple)):
        raise ServeRequestError("refine_steps must be a list of integers")
    if len(refine_steps) > MAX_REFINE_STEPS:
        raise ServeRequestError(f"at most {MAX_REFINE_STEPS} refine_steps")
    try:
        refine_steps = tuple(int(step) for step in refine_steps)
    except (TypeError, ValueError, OverflowError):
        raise ServeRequestError("refine_steps must be integers")
    if any(step < 1 for step in refine_steps):
        raise ServeRequestError("refine_steps must be positive")
    # Offset bins lie in [0, grid_size // 2), so a longer move is never
    # feasible; an unbounded one overflows the search's int64 offsets.
    # Only steps the client sent are checked: the defaults cannot
    # overflow, and a small grid simply never takes their long moves.
    if "refine_steps" in payload and any(
        step > grid_size // 2 for step in refine_steps
    ):
        raise ServeRequestError(
            f"refine_steps must be at most grid_size // 2 = {grid_size // 2}"
        )
    seed = payload.get("seed", defaults.seed)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ServeRequestError("seed must be a non-negative integer")
    eirp_watts = _number(payload, "eirp_watts", DEFAULT_EIRP_WATTS)
    air_distance_m = _number(
        payload, "air_distance_m", DEFAULT_AIR_DISTANCE_M
    )
    if eirp_watts <= 0 or air_distance_m <= 0:
        raise ServeRequestError(
            "eirp_watts and air_distance_m must be positive"
        )
    request = PlanRequest(
        kind=kind,
        n_antennas=n_antennas,
        threshold=threshold if conduction else None,
        alpha=alpha,
        query_duration_s=query_duration_s,
        center_frequency_hz=_number(
            payload, "center_frequency_hz", defaults.center_frequency_hz
        ),
        n_draws=_positive_int(
            payload, "n_draws", defaults.n_draws, MAX_DRAWS
        ),
        grid_size=grid_size,
        seed=seed,
        n_candidates=_positive_int(
            payload, "n_candidates", defaults.n_candidates, MAX_CANDIDATES
        ),
        refine_rounds=_positive_int(
            payload, "refine_rounds", defaults.refine_rounds, MAX_REFINE_ROUNDS
        ),
        refine_steps=refine_steps,
        islands=_positive_int(
            payload, "islands", defaults.islands, MAX_ISLANDS
        ),
        fault_token=_fault_token(payload),
        adaptive_token=_adaptive_token(payload),
        medium=medium,
        depth_m=depth_m,
        eirp_watts=eirp_watts,
        air_distance_m=air_distance_m,
    )
    if depth_m is not None:
        _check_power_answer(request)
    return request


@dataclass
class ServeConfig:
    """Tunables of one :class:`PlanService` instance."""

    workers: int = 1
    flush_window_s: float = DEFAULT_FLUSH_WINDOW_S
    max_batch: int = DEFAULT_MAX_BATCH
    store_path: Optional[str] = None
    store_max_entries: Optional[int] = None
    mem_entries: Optional[int] = None
    cache_enabled: bool = True


def power_at_depth(
    request: PlanRequest, result: OptimizationResult
) -> Optional[Dict[str, Any]]:
    """Eq. 2/3 power answer for a planned peak at the requested depth.

    The per-branch field at depth (Eq. 2) scales by the plan's expected
    coherent peak gain; the standard tag's detuning-aware front end turns
    the peak field into available power (Eq. 3). A power that underflows
    to zero has no dBm value: ``harvested_dbm`` is then ``None`` (JSON
    ``null``), never ``-inf``, which strict JSON cannot carry.
    """
    if request.medium is None or request.depth_m is None:
        return None
    return _power_answer(request, result.expected_peak)


_STANDARD_FRONT_END = standard_tag_spec().front_end()
"""The standard tag's front end every power answer uses (built once)."""


def _power_answer(request: PlanRequest, peak_gain: float) -> Dict[str, Any]:
    medium = MEDIA_LIBRARY[request.medium]
    frequency_hz = request.center_frequency_hz
    branch_field = tissue_field_amplitude(
        request.eirp_watts,
        request.air_distance_m,
        request.depth_m,
        medium,
        frequency_hz,
    )
    peak_field = branch_field * peak_gain
    harvested_w = _STANDARD_FRONT_END.available_power_w(
        peak_field, medium, frequency_hz
    )
    return {
        "medium": request.medium,
        "depth_m": request.depth_m,
        "eirp_watts": request.eirp_watts,
        "air_distance_m": request.air_distance_m,
        "branch_field_v_per_m": branch_field,
        "peak_field_v_per_m": peak_field,
        "harvested_w": harvested_w,
        "harvested_dbm": (
            10.0 * math.log10(harvested_w * 1e3)
            if harvested_w > 0
            else None
        ),
    }


def _check_power_answer(request: PlanRequest) -> None:
    """Reject depth inputs whose power answer leaves float range.

    The answer grows with the plan's peak gain. That gain is a mean of
    envelope maxima of unit phasors, so it is at most ``n_antennas`` up
    to the float64 IFFT's rounding (relative ~1e-14); checking just past
    that bound accepts exactly the requests whose every plan has a finite
    answer.
    """
    try:
        answer = _power_answer(request, request.n_antennas * (1.0 + 1e-9))
    except OverflowError:
        answer = None
    if answer is None or not all(
        math.isfinite(value)
        for value in answer.values()
        if isinstance(value, float)
    ):
        raise ServeRequestError(
            "eirp_watts, air_distance_m and depth_m put the power at depth "
            "outside float range"
        )


class PlanService:
    """Caching, deduplicating, micro-batching planning engine."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        obs: Optional[ObsContext] = None,
    ):
        self.config = config if config is not None else ServeConfig()
        if self.config.workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {self.config.workers}"
            )
        self.obs = obs if obs is not None else current_obs()
        self.store: Optional[PlanStore] = (
            PlanStore(
                self.config.store_path,
                max_entries=self.config.store_max_entries,
            )
            if self.config.store_path
            else None
        )
        self.cache = PlanCache(
            enabled=self.config.cache_enabled,
            max_entries=self.config.mem_entries,
            backing=self.store,
        )
        # One search per chunk. Spawn the full worker complement before
        # any traffic: the first batch skips pool startup, and no worker
        # ever forks while client connections are open.
        self.runner = TrialRunner(
            workers=self.config.workers, chunk_size=1, persistent=True
        )
        self.runner.warm_up()
        self.batcher = MicroBatcher(
            self._execute_batch,
            flush_window_s=self.config.flush_window_s,
            max_batch=self.config.max_batch,
        )
        self._inflight: Dict[str, asyncio.Future] = {}
        self._batch_ids = itertools.count(1)
        self.started_unix_s = time.time()
        self.requests = 0
        self.plans = 0
        self.errors = 0

    # -- async request path -----------------------------------------------------

    async def handle(self, payload: Any) -> Dict[str, Any]:
        """Parse and serve one request payload (the front-end entry)."""
        request = parse_request(payload)
        return await self.submit(request)

    async def submit(self, request: PlanRequest) -> Dict[str, Any]:
        """Serve one validated request; returns the JSON-able response."""
        obs = self.obs
        began = time.perf_counter()
        key = request.key
        self.requests += 1
        obs.metrics.counter("serve.requests").inc()
        with obs.tracer.span(
            "serve.request",
            key=key,
            kind=request.kind,
            n_antennas=request.n_antennas,
        ) as span:
            try:
                result, source = await self._resolve(request, key, obs)
            except Exception:
                self.errors += 1
                obs.metrics.counter("serve.errors").inc()
                span.attrs["source"] = "error"
                raise
            span.attrs["source"] = source
            latency_s = time.perf_counter() - began
            span.attrs["latency_ms"] = round(latency_s * 1e3, 3)
        self.plans += 1
        obs.metrics.counter("serve.plans").inc()
        obs.metrics.histogram(
            "serve.latency_s", SERVE_LATENCY_EDGES
        ).observe(latency_s)
        return self._respond(request, key, result, source, latency_s)

    async def _resolve(
        self, request: PlanRequest, key: str, obs: ObsContext
    ) -> Tuple[OptimizationResult, str]:
        """Answer from a cache tier, a same-key in-flight compute, or a
        batched computation."""
        result, tier = self.cache.lookup_tiered(key)
        if result is not None:
            if tier == "store":
                with obs.tracer.span(
                    "serve.store_hit", key=key, tier=tier
                ):
                    pass
            return result, tier
        existing = self._inflight.get(key)
        if existing is not None:
            obs.metrics.counter("serve.coalesced").inc()
            return await asyncio.shield(existing), "coalesced"
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        try:
            result = await self.batcher.submit(request)
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Consume the exception so un-awaited coalesced futures
                # do not warn at teardown.
                future.exception()
            raise
        else:
            if not future.done():
                future.set_result(result)
            return result, "computed"
        finally:
            self._inflight.pop(key, None)

    # -- batch execution (worker thread) ----------------------------------------

    def _execute_batch(self, requests: List[PlanRequest]) -> List[Any]:
        """Run one flushed batch; returns result-or-exception per item.

        Runs on a worker thread via ``asyncio.to_thread``, which carries
        the event loop's contextvars, so ``current_obs()`` here is the
        service scope.
        """
        obs = current_obs()
        batch_id = next(self._batch_ids)
        groups: Dict[str, List[int]] = {}
        for index, request in enumerate(requests):
            groups.setdefault(request.key, []).append(index)
        results: List[Any] = [None] * len(requests)
        with obs.tracer.span(
            "serve.batch",
            batch=batch_id,
            size=len(requests),
            groups=len(groups),
        ) as span:
            unique = [requests[indices[0]] for indices in groups.values()]
            outcomes = self._search_all(unique)
            for indices, outcome in zip(groups.values(), outcomes):
                for index in indices:
                    results[index] = outcome
            occupancy = len(requests) / max(1, len(groups))
            span.attrs["occupancy"] = round(occupancy, 3)
            obs.metrics.counter("serve.batches").inc()
            obs.metrics.counter("serve.batched_requests").inc(len(requests))
            obs.metrics.counter("serve.batch_groups").inc(len(groups))
            obs.metrics.gauge("serve.batch_occupancy").set(occupancy)
        return results

    def _search_all(self, requests: List[PlanRequest]) -> List[Any]:
        """One plan (or exception) per distinct-key request, in order.

        The searches are one runner map, so the pool's telemetry merges
        into the batch's context; each plan is stored in the cache tiers
        here, in this process.
        """
        chunks = self.runner.map_chunks(
            partial(_search_chunk, requests), len(requests), label="serve.search"
        )
        outcomes = [outcome for chunk in chunks for outcome in chunk]
        for request, outcome in zip(requests, outcomes):
            if not isinstance(outcome, Exception):
                self.cache.store(request.key, outcome)
        return outcomes

    # -- response ----------------------------------------------------------------

    def _respond(
        self,
        request: PlanRequest,
        key: str,
        result: OptimizationResult,
        source: str,
        latency_s: float,
    ) -> Dict[str, Any]:
        response = {
            "status": "ok",
            "key": key,
            "kind": request.kind,
            "source": source,
            "search_rev": SEARCH_REV,
            "result": result_to_json(result),
            "latency_ms": round(latency_s * 1e3, 3),
        }
        power = power_at_depth(request, result)
        if power is not None:
            response["power"] = power
        return response

    def stats(self) -> Dict[str, Any]:
        """Live service counters (the GET /stats payload)."""
        return {
            "uptime_s": round(time.time() - self.started_unix_s, 3),
            "requests": self.requests,
            "plans": self.plans,
            "errors": self.errors,
            "inflight": len(self._inflight),
            "workers": self.config.workers,
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
            },
            "batcher": self.batcher.stats(),
            "store": None if self.store is None else self.store.stats(),
        }

    async def close(self) -> None:
        """Drain in-flight batches, stop the pool, close the store."""
        await self.batcher.drain()
        self.runner.shutdown()
        if self.store is not None:
            self.store.close()


def _search(request: PlanRequest) -> OptimizationResult:
    """One cold search, uncached: the caller stores the plan."""
    search = {
        field.name: getattr(request, field.name)
        for field in fields(SearchConfig)
    }
    if search.pop("kind") == "peak":
        helper = optimized_plan
    else:
        helper = optimized_conduction_plan
    return helper(
        **search,
        cache=PlanCache(enabled=False),
        workers=1,
        fault_token=request.fault_token,
        adaptive_token=request.adaptive_token,
    )


def _search_chunk(
    requests: Sequence[PlanRequest], start: int, count: int
) -> List[Any]:
    """Runner chunk: each search's plan, or the exception it raised, so
    one failed request never fails its batch."""
    outcomes: List[Any] = []
    for request in requests[start : start + count]:
        try:
            outcomes.append(_search(request))
        except Exception as exc:  # noqa: BLE001 - per-item failure
            outcomes.append(exc)
    return outcomes
