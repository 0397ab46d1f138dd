"""Unit tests for the frequency-search plan cache."""

import pytest

from repro.core.optimizer import FrequencyOptimizer
from repro.runtime.cache import (
    PlanCache,
    configure_search,
    get_search_defaults,
    optimized_conduction_plan,
    optimized_plan,
    plan_key,
)


class TestPlanKey:
    def test_deterministic_and_order_insensitive(self):
        assert plan_key(a=1, b=2) == plan_key(b=2, a=1)

    def test_sensitive_to_every_parameter(self):
        base = plan_key(kind="peak", seed=0, n_candidates=10)
        assert plan_key(kind="peak", seed=1, n_candidates=10) != base
        assert plan_key(kind="peak", seed=0, n_candidates=11) != base
        assert plan_key(kind="conduction", seed=0, n_candidates=10) != base


class TestSearchDefaults:
    def test_configure_and_read_back(self):
        before = get_search_defaults()
        try:
            assert configure_search(
                islands=2, workers=3, adaptive_token="abc123"
            ) == {
                "islands": 2,
                "workers": 3,
                "adaptive_token": "abc123",
            }
            assert get_search_defaults() == {
                "islands": 2,
                "workers": 3,
                "adaptive_token": "abc123",
            }
        finally:
            configure_search(
                islands=before["islands"],
                workers=before["workers"],
                adaptive_token=before["adaptive_token"],
            )

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            configure_search(islands=0)
        with pytest.raises(ValueError):
            configure_search(workers=0)
        with pytest.raises(ValueError):
            configure_search(adaptive_token="")

    def test_adaptive_token_is_part_of_the_key(self):
        cache = PlanCache()
        optimized_plan(
            3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        optimized_plan(
            3,
            n_draws=8,
            n_candidates=4,
            refine_rounds=0,
            cache=cache,
            adaptive_token="policy-a",
        )
        assert cache.misses == 2
        optimized_plan(
            3,
            n_draws=8,
            n_candidates=4,
            refine_rounds=0,
            cache=cache,
            adaptive_token="policy-a",
        )
        assert cache.hits == 1

    def test_island_count_is_part_of_the_key(self):
        cache = PlanCache()
        optimized_plan(
            3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        optimized_plan(
            3,
            n_draws=8,
            n_candidates=4,
            refine_rounds=0,
            cache=cache,
            islands=2,
        )
        assert cache.misses == 2

    def test_worker_count_is_not_part_of_the_key(self):
        cache = PlanCache()
        one = optimized_plan(
            3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        two = optimized_plan(
            3,
            n_draws=8,
            n_candidates=4,
            refine_rounds=0,
            cache=cache,
            workers=2,
        )
        assert cache.hits == 1
        assert two is one


class TestPlanCache:
    def test_memory_hit(self):
        cache = PlanCache()
        result = optimized_plan(
            3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        again = optimized_plan(
            3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        assert again is result
        assert cache.hits == 1 and cache.misses == 1

    def test_cache_dir_env_attaches_sqlite_store(self, tmp_path, monkeypatch):
        from repro.runtime import cache as cache_mod
        from repro.serve.store import PlanStore

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cache_mod, "_GLOBAL", None)
        cache = cache_mod.get_plan_cache()
        assert isinstance(cache.backing, PlanStore)
        assert cache.backing.path == tmp_path / "plans.sqlite"
        cache.backing.close()

    def test_disabled_cache_never_hits(self):
        cache = PlanCache(enabled=False)
        first = optimized_plan(
            3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        second = optimized_plan(
            3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        assert cache.hits == 0 and cache.misses == 2
        assert first is not second
        assert first.plan == second.plan  # same seed, fresh optimizers

    def test_lru_eviction_counts_and_caps_memory(self):
        cache = PlanCache(max_entries=2)
        for antennas in (3, 4, 5):
            optimized_plan(
                antennas,
                n_draws=8,
                n_candidates=4,
                refine_rounds=0,
                cache=cache,
            )
        assert cache.evictions == 1
        assert len(cache._memory) == 2
        # The oldest entry (3 antennas) was evicted -> recomputing misses.
        optimized_plan(
            3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        assert cache.misses == 4

    def test_lookup_refreshes_lru_order(self):
        cache = PlanCache(max_entries=2)
        first = optimized_plan(
            3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        optimized_plan(
            4, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        # Touch the older entry, then insert a third: 4 is now the LRU.
        optimized_plan(
            3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        optimized_plan(
            5, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        again = optimized_plan(
            3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        assert again is first
        assert cache.evictions == 1

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    def test_cached_result_matches_direct_search(self):
        cache = PlanCache()
        cached = optimized_plan(
            4, n_draws=8, seed=3, n_candidates=5, refine_rounds=0, cache=cache
        )
        direct = FrequencyOptimizer(4, n_draws=8, seed=3).optimize(
            n_candidates=5, refine_rounds=0
        )
        assert cached.plan == direct.plan
        assert cached.expected_peak == direct.expected_peak

    def test_conduction_helper_matches_direct_search(self):
        cache = PlanCache()
        cached = optimized_conduction_plan(
            4,
            2.0,
            n_draws=8,
            seed=3,
            n_candidates=5,
            refine_rounds=0,
            cache=cache,
        )
        direct = FrequencyOptimizer(4, n_draws=8, seed=3).optimize_conduction(
            2.0, n_candidates=5, refine_rounds=0
        )
        assert cached.plan == direct.plan
        # A second call with a different threshold misses (key includes it).
        optimized_conduction_plan(
            4,
            3.0,
            n_draws=8,
            seed=3,
            n_candidates=5,
            refine_rounds=0,
            cache=cache,
        )
        assert cache.misses == 2


class TestFaultTokenKeying:
    """Fault plans must not share cache entries with healthy runs."""

    def test_fault_token_is_part_of_the_key(self):
        cache = PlanCache()
        optimized_plan(
            3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        optimized_plan(
            3,
            n_draws=8,
            n_candidates=4,
            refine_rounds=0,
            cache=cache,
            fault_token="faults:deadbeef",
        )
        assert cache.misses == 2 and cache.hits == 0

    def test_none_and_empty_plan_share_the_healthy_key(self):
        from repro.faults.plan import EMPTY_PLAN

        cache = PlanCache()
        healthy = optimized_plan(
            3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        via_empty = optimized_plan(
            3,
            n_draws=8,
            n_candidates=4,
            refine_rounds=0,
            cache=cache,
            fault_token=EMPTY_PLAN.cache_token(),
        )
        assert via_empty is healthy
        assert cache.hits == 1

    def test_distinct_plans_get_distinct_entries(self):
        from repro.faults.plan import pll_relock, tag_detuning

        cache = PlanCache()
        for plan in (pll_relock(0.5), tag_detuning(0.5)):
            optimized_plan(
                3,
                n_draws=8,
                n_candidates=4,
                refine_rounds=0,
                cache=cache,
                fault_token=plan.cache_token(),
            )
        assert cache.misses == 2

    def test_conduction_plan_keys_on_fault_token_too(self):
        cache = PlanCache()
        optimized_conduction_plan(
            3, 0.5, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
        )
        optimized_conduction_plan(
            3,
            0.5,
            n_draws=8,
            n_candidates=4,
            refine_rounds=0,
            cache=cache,
            fault_token="faults:deadbeef",
        )
        assert cache.misses == 2
