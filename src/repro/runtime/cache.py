"""Caching for Eq. 10 frequency-search results.

The randomized :class:`~repro.core.optimizer.FrequencyOptimizer` search
takes seconds and is repeated with identical inputs by the scheduler, the
ablations, and the benchmark suite. :class:`PlanCache` memoizes
:class:`~repro.core.optimizer.OptimizationResult` objects under a hash of
the full search configuration, in memory and (optionally) in a durable
SQLite :class:`~repro.serve.store.PlanStore` so results survive across
processes.

The module-level helpers :func:`optimized_plan` /
:func:`optimized_conduction_plan` are the supported entry points. Each one
constructs a **fresh** optimizer per uncached call: an optimizer's internal
generator advances as it searches, so skipping a cached ``optimize()`` on a
shared instance would silently shift every later draw from that instance.

Durable caching is off by default (memory only); set the
``REPRO_CACHE_DIR`` environment variable (the store lives at
``$REPRO_CACHE_DIR/plans.sqlite``) or call :func:`configure_plan_cache`
with a ``store_path`` to enable it.
Cache keys include the seed and every search parameter, so a hit is exactly
the result the search would have produced.
"""

import os
import threading
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.core.constraints import FlatnessConstraint
from repro.core.optimizer import SEARCH_REV, OptimizationResult, SearchConfig
from repro.core.plan import CarrierPlan
from repro.hashing import stable_digest
from repro.obs.context import current_obs

_ENV_CACHE_DIR = "REPRO_CACHE_DIR"

_SEARCH_DEFAULTS = {"islands": 1, "workers": 1, "adaptive_token": "none"}


def configure_search(
    islands: Optional[int] = None,
    workers: Optional[int] = None,
    adaptive_token: Optional[str] = None,
) -> Dict[str, object]:
    """Set process-wide defaults for the frequency-search pipeline.

    ``islands`` is the number of independent search islands the cached
    helpers run per search (part of the cache key -- different island
    counts explore different candidate streams and may select different
    plans); ``workers`` is how many processes island searches may fan out
    across (*not* part of the key: results are bit-identical for any
    worker count). ``adaptive_token`` is the active
    :meth:`repro.runtime.adaptive.AdaptiveConfig.cache_token` (``"none"``
    when adaptive allocation is off); it is part of the key so plans
    produced under one allocation policy are never served to a run under
    another. The CLI's ``--search-islands`` / ``--adaptive`` flags land
    here.
    """
    if islands is not None:
        if islands < 1:
            raise ValueError(f"islands must be >= 1, got {islands}")
        _SEARCH_DEFAULTS["islands"] = int(islands)
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        _SEARCH_DEFAULTS["workers"] = int(workers)
    if adaptive_token is not None:
        if not adaptive_token:
            raise ValueError("adaptive_token must be a non-empty string")
        _SEARCH_DEFAULTS["adaptive_token"] = str(adaptive_token)
    return dict(_SEARCH_DEFAULTS)


def get_search_defaults() -> Dict[str, object]:
    """Current process-wide search defaults (islands, workers, adaptive)."""
    return dict(_SEARCH_DEFAULTS)


def result_to_json(result: OptimizationResult) -> dict:
    """JSON-serializable form of an :class:`OptimizationResult`.

    The wire/storage format shared by the SQLite plan store
    (:mod:`repro.serve.store`) and the serve responses: round-tripping
    through :func:`result_from_json` reconstructs a bit-identical result
    (floats survive JSON exactly via ``repr`` round-tripping).
    """
    plan = result.plan
    return {
        "plan": {
            "center_frequency_hz": plan.center_frequency_hz,
            "offsets_hz": list(plan.offsets_hz),
            "amplitudes": (
                None if plan.amplitudes is None else list(plan.amplitudes)
            ),
        },
        "expected_peak": result.expected_peak,
        "normalized_peak": result.normalized_peak,
        "n_evaluations": result.n_evaluations,
        "history": list(result.history),
    }


def result_from_json(payload: dict) -> OptimizationResult:
    """Inverse of :func:`result_to_json`.

    Raises ``KeyError`` / ``TypeError`` / ``ValueError`` on malformed
    payloads -- callers treat those as corrupt-entry misses.
    """
    plan_data = payload["plan"]
    plan = CarrierPlan(
        center_frequency_hz=float(plan_data["center_frequency_hz"]),
        offsets_hz=tuple(float(v) for v in plan_data["offsets_hz"]),
        amplitudes=(
            None
            if plan_data["amplitudes"] is None
            else tuple(float(v) for v in plan_data["amplitudes"])
        ),
    )
    return OptimizationResult(
        plan=plan,
        expected_peak=float(payload["expected_peak"]),
        normalized_peak=float(payload["normalized_peak"]),
        n_evaluations=int(payload["n_evaluations"]),
        history=tuple(float(v) for v in payload["history"]),
    )


def plan_key(**config) -> str:
    """Deterministic hex key for a search configuration."""
    return stable_digest(config, 24)


def search_key(
    config: SearchConfig,
    fault_token: Optional[str] = None,
    adaptive_token: str = "none",
) -> str:
    """The plan-cache key of one search: every :class:`SearchConfig` field.

    Key hygiene is deliberate: ``search_rev`` is baked in (so persisted
    rows from an older search algorithm can never be served as current),
    ``fault_token`` / ``adaptive_token`` isolate fault-injected and
    adaptive-allocation plans, ``threshold`` enters only for the
    conduction search, and the worker count is **excluded** (results are
    bit-identical for any fan-out). The serve layer addresses every cache
    tier -- memory and the SQLite store -- by this key too.
    """
    key = {
        field.name: getattr(config, field.name)
        for field in fields(SearchConfig)
    }
    if config.threshold is None:
        del key["threshold"]
    key.update(
        search_rev=SEARCH_REV,
        fault_token=fault_token or "none",
        adaptive_token=adaptive_token,
    )
    return plan_key(**key)


class PlanCache:
    """Tiered (memory + optional durable backing store) cache of results.

    Attributes:
        backing: Optional durable store (duck-typed ``get(key)`` /
            ``put(key, result)``, e.g. :class:`repro.serve.store.PlanStore`)
            consulted after the memory tier; hits are promoted into memory.
        enabled: When False every lookup misses and nothing is stored.
        max_entries: Cap on the in-memory layer; storing past it evicts
            the least-recently-used entry (None = unbounded). The backing
            store prunes itself.
        hits / misses / evictions: Lookup/eviction counters, mirrored into
            the current observability context's metrics registry
            (``plan_cache.hits`` / ``.misses`` / ``.evictions``) so cache
            effectiveness shows up in ``--timings`` and ``--metrics-out``.

    Thread safety: the memory tier is guarded by a lock, so a serving
    process can look up and store plans from concurrent batch threads.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_entries: Optional[int] = None,
        backing: Optional[Any] = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.enabled = bool(enabled)
        self.max_entries = max_entries
        self.backing = backing
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._memory: Dict[str, OptimizationResult] = {}

    def _hit(self) -> None:
        self.hits += 1
        current_obs().metrics.counter("plan_cache.hits").inc()

    def _miss(self) -> None:
        self.misses += 1
        current_obs().metrics.counter("plan_cache.misses").inc()

    def lookup(self, key: str) -> Optional[OptimizationResult]:
        """Cached result for ``key``, or None on a miss."""
        return self.lookup_tiered(key)[0]

    def lookup_tiered(
        self, key: str
    ) -> Tuple[Optional[OptimizationResult], str]:
        """Cached result plus the tier that answered.

        Returns ``(result, tier)`` with tier one of ``"memory"``,
        ``"store"`` (the backing store), or ``"miss"``. The serve layer
        surfaces the tier as the response's ``source`` field and as
        ``serve.store_hit`` spans.
        """
        if not self.enabled:
            self._miss()
            return None, "miss"
        with self._lock:
            result = self._memory.get(key)
            if result is not None:
                # Re-insertion keeps dict order LRU-ish for eviction.
                self._memory.pop(key)
                self._memory[key] = result
        if result is not None:
            self._hit()
            return result, "memory"
        if self.backing is not None:
            result = self.backing.get(key)
            if result is not None:
                with self._lock:
                    self._remember(key, result)
                self._hit()
                return result, "store"
        self._miss()
        return None, "miss"

    def _remember(self, key: str, result: OptimizationResult) -> None:
        """Insert into the memory layer, evicting LRU past ``max_entries``.

        Callers hold ``self._lock``.
        """
        self._memory.pop(key, None)
        self._memory[key] = result
        while (
            self.max_entries is not None
            and len(self._memory) > self.max_entries
        ):
            self._memory.pop(next(iter(self._memory)))
            self.evictions += 1
            current_obs().metrics.counter("plan_cache.evictions").inc()

    def store(self, key: str, result: OptimizationResult) -> None:
        """Record ``result`` under ``key`` in every enabled tier."""
        if not self.enabled:
            return
        with self._lock:
            self._remember(key, result)
        if self.backing is not None:
            self.backing.put(key, result)

    def clear(self) -> None:
        """Drop the in-memory layer (the backing store is left alone)."""
        with self._lock:
            self._memory.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


_GLOBAL: Optional[PlanCache] = None


def get_plan_cache() -> PlanCache:
    """The process-wide plan cache used by the helpers below.

    Built on first use: memory only, plus the SQLite store at
    ``$REPRO_CACHE_DIR/plans.sqlite`` when that variable is set.
    """
    if _GLOBAL is None:
        directory = os.environ.get(_ENV_CACHE_DIR)
        configure_plan_cache(
            store_path=Path(directory) / "plans.sqlite" if directory else None
        )
    return _GLOBAL


def configure_plan_cache(
    enabled: bool = True,
    max_entries: Optional[int] = None,
    store_path: Optional[os.PathLike] = None,
    store_max_entries: Optional[int] = None,
) -> PlanCache:
    """Replace the global cache (e.g. to attach a store or disable it).

    ``store_path`` attaches a durable SQLite
    :class:`repro.serve.store.PlanStore` as the backing tier (pruned to
    ``store_max_entries`` least-recently-used rows when set); the import
    is lazy so :mod:`repro.runtime` does not depend on :mod:`repro.serve`
    unless a store is requested.
    """
    global _GLOBAL
    backing = None
    if store_path is not None:
        from repro.serve.store import PlanStore

        backing = PlanStore(store_path, max_entries=store_max_entries)
    _GLOBAL = PlanCache(
        enabled=enabled,
        max_entries=max_entries,
        backing=backing,
    )
    return _GLOBAL


def _cached_search(
    config: SearchConfig,
    *,
    cache: Optional[PlanCache] = None,
    workers: Optional[int] = None,
    fault_token: Optional[str] = None,
    adaptive_token: Optional[str] = None,
) -> OptimizationResult:
    """The one cached search behind :func:`optimized_plan` and
    :func:`optimized_conduction_plan`: key, look up, else run the search
    on a fresh optimizer and store."""
    cache = cache if cache is not None else get_plan_cache()
    workers = _SEARCH_DEFAULTS["workers"] if workers is None else workers
    if adaptive_token is None:
        adaptive_token = str(_SEARCH_DEFAULTS["adaptive_token"])
    key = search_key(config, fault_token, adaptive_token)
    obs = current_obs()
    kind = config.kind
    with obs.tracer.span("plan_cache.lookup", kind=kind, key=key) as span:
        result = cache.lookup(key)
        span.attrs["hit"] = result is not None
    if result is not None:
        return result
    with obs.stage_span(f"plan_search.{kind}", kind=kind, key=key):
        result = config.run(workers=workers)
    cache.store(key, result)
    return result


def _search_config(
    kind: str,
    n_antennas: int,
    constraint: Optional[FlatnessConstraint],
    search: Dict[str, Any],
) -> SearchConfig:
    """The helpers' keywords as a :class:`SearchConfig`: ``constraint``,
    when given, sets ``alpha`` and ``query_duration_s``, and ``islands``
    defaults to the :func:`configure_search` setting."""
    if search.get("islands") is None:
        search["islands"] = _SEARCH_DEFAULTS["islands"]
    if constraint is not None:
        search["alpha"] = constraint.alpha
        search["query_duration_s"] = constraint.query_duration_s
    return SearchConfig(n_antennas, kind, **search)


_CALL_ONLY = ("cache", "workers", "fault_token", "adaptive_token")


def optimized_plan(
    n_antennas: int,
    constraint: Optional[FlatnessConstraint] = None,
    **search,
) -> OptimizationResult:
    """Cached equivalent of ``FrequencyOptimizer(...).optimize(...)``.

    Keyword arguments: any :class:`SearchConfig` field but ``kind`` and
    ``threshold`` (the optimizer's ``center_frequency_hz``, ``n_draws``,
    ``grid_size`` and ``seed``; the search's ``n_candidates``,
    ``refine_rounds``, ``refine_steps`` and ``islands``), and ``cache``
    (default: :func:`get_plan_cache`), ``workers``, ``fault_token`` and
    ``adaptive_token``.

    ``islands`` / ``workers`` default to :func:`configure_search` settings;
    the island count is part of the cache key (it changes which candidate
    streams are explored) while the worker count is not (results are
    bit-identical for any fan-out). ``fault_token`` (a
    :meth:`repro.faults.plan.FaultPlan.cache_token` value) is part of the
    key, so results produced under one fault plan are never served to
    another; ``None`` and the empty plan share the healthy key.
    ``adaptive_token`` keys the active adaptive-allocation policy the same
    way (defaulting to the :func:`configure_search` process-wide value).
    """
    call = {name: search.pop(name, None) for name in _CALL_ONLY}
    config = _search_config("peak", n_antennas, constraint, search)
    return _cached_search(config, **call)


def optimized_conduction_plan(
    n_antennas: int,
    threshold: float,
    constraint: Optional[FlatnessConstraint] = None,
    **search,
) -> OptimizationResult:
    """Cached ``FrequencyOptimizer(...).optimize_conduction(threshold, ...)``.

    Takes the same keyword arguments as :func:`optimized_plan`, with the
    same meaning.
    """
    call = {name: search.pop(name, None) for name in _CALL_ONLY}
    search["threshold"] = threshold
    config = _search_config("conduction", n_antennas, constraint, search)
    return _cached_search(config, **call)
