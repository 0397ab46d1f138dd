"""Unit tests for the persistent SQLite plan store."""

import json
import sqlite3
import sys
import threading

import pytest

from repro.core.optimizer import SEARCH_REV, FrequencyOptimizer
from repro.obs.context import obs_context
from repro.runtime.cache import PlanCache, optimized_plan, result_to_json
from repro.serve.store import STORE_SCHEMA_VERSION, PlanStore


@pytest.fixture(scope="module")
def result():
    return FrequencyOptimizer(4, n_draws=8, seed=0).optimize(
        n_candidates=6, refine_rounds=0
    )


class TestRoundTrip:
    def test_bit_identical_across_reopen(self, tmp_path, result):
        path = tmp_path / "plans.sqlite"
        with PlanStore(path) as store:
            store.put("k1", result)
        with PlanStore(path) as store:
            replayed = store.get("k1")
        assert replayed is not None
        # Bitwise: the JSON wire forms match exactly.
        assert result_to_json(replayed) == result_to_json(result)
        assert replayed.plan.offsets_hz == result.plan.offsets_hz

    def test_miss_returns_none_and_counts(self, tmp_path, result):
        with obs_context() as obs, PlanStore(tmp_path / "p.sqlite") as store:
            assert store.get("absent") is None
            assert obs.metrics.counters()["plan_store.misses"] == 1

    def test_hits_update_usage_metadata(self, tmp_path, result):
        path = tmp_path / "p.sqlite"
        with PlanStore(path) as store:
            store.put("k1", result)
            store.get("k1")
            store.get("k1")
        assert _usage(path)["k1"][1] == 2


def _usage(path):
    """``key -> (last_used_unix_s, hits)`` as committed to the file."""
    conn = sqlite3.connect(str(path))
    try:
        rows = conn.execute(
            "SELECT key, last_used_unix_s, hits FROM plans"
        ).fetchall()
    finally:
        conn.close()
    return {key: (last_used, hits) for key, last_used, hits in rows}


class TestReadOnlyHits:
    def test_hit_makes_no_write(self, tmp_path, result):
        with PlanStore(tmp_path / "p.sqlite") as store:
            store.put("k1", result)
            changes = store._conn.total_changes
            for _ in range(3):
                assert store.get("k1") is not None
            assert store.get("absent") is None
            assert store._conn.total_changes == changes

    def test_close_persists_hits(self, tmp_path, result):
        path = tmp_path / "p.sqlite"
        with PlanStore(path) as store:
            store.put("k1", result)
            store.put("k2", result)
            put_usage = _usage(path)
            for _ in range(3):
                store.get("k1")
            assert _usage(path) == put_usage  # nothing written yet
        usage = _usage(path)
        assert usage["k1"][1] == 3 and usage["k2"][1] == 0
        assert usage["k1"][0] >= put_usage["k1"][0]
        assert usage["k2"] == put_usage["k2"]

    def test_put_writes_pending_hits(self, tmp_path, result):
        path = tmp_path / "p.sqlite"
        with PlanStore(path) as store:
            store.put("k1", result)
            store.get("k1")
            store.get("k1")
            store.put("k2", result)
            assert _usage(path)["k1"][1] == 2
            store.get("k1")
        assert _usage(path)["k1"][1] == 3

    def test_concurrent_hits_and_puts_lose_no_hit(self, tmp_path, result):
        path = tmp_path / "p.sqlite"
        keys = ("k0", "k1", "k2")
        readers, reads = 4, 150
        with PlanStore(path) as store:
            for key in keys:
                store.put(key, result)

            def read(worker):
                for index in range(reads):
                    store.get(keys[(worker + index) % len(keys)])

            def write():
                for index in range(30):
                    store.put(f"new{index}", result)

            threads = [
                threading.Thread(target=read, args=(worker,))
                for worker in range(readers)
            ] + [threading.Thread(target=write)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        usage = _usage(path)
        assert sum(usage[key][1] for key in keys) == readers * reads

    def test_deleted_key_drops_its_pending_hits(self, tmp_path, result):
        path = tmp_path / "p.sqlite"
        with PlanStore(path) as store:
            store.put("k1", result)
            store.get("k1")
            assert store.delete("k1")
            store.put("k1", result)
        assert _usage(path)["k1"][1] == 0


class TestSchemaHygiene:
    def test_meta_records_version_and_rev(self, tmp_path):
        with PlanStore(tmp_path / "p.sqlite") as store:
            meta = store.meta()
        assert meta["schema_version"] == str(STORE_SCHEMA_VERSION)
        assert meta["search_rev"] == str(SEARCH_REV)

    def test_schema_version_mismatch_resets_store(self, tmp_path, result):
        path = tmp_path / "p.sqlite"
        with PlanStore(path) as store:
            store.put("k1", result)
        conn = sqlite3.connect(str(path))
        with conn:
            conn.execute(
                "UPDATE store_meta SET value = '999' "
                "WHERE key = 'schema_version'"
            )
        conn.close()
        with obs_context() as obs, PlanStore(path) as store:
            assert len(store) == 0
            assert store.meta()["schema_version"] == str(STORE_SCHEMA_VERSION)
            assert obs.metrics.counters()["plan_store.schema_resets"] == 1

    def test_search_rev_mismatch_invalidates_rows(self, tmp_path, result):
        path = tmp_path / "p.sqlite"
        with PlanStore(path, search_rev=SEARCH_REV) as store:
            store.put("k1", result)
        with obs_context() as obs:
            with PlanStore(path, search_rev=SEARCH_REV + 1) as store:
                assert len(store) == 0
                assert store.get("k1") is None
            assert obs.metrics.counters()["plan_store.invalidated"] == 1

    def test_corrupt_payload_recovers_by_deletion(self, tmp_path, result):
        path = tmp_path / "p.sqlite"
        store = PlanStore(path)
        store.put("k1", result)
        with store._conn:
            store._conn.execute(
                "UPDATE plans SET payload = '{\"truncated\":' WHERE key = 'k1'"
            )
        with obs_context() as obs:
            assert store.get("k1") is None
            counters = obs.metrics.counters()
        assert counters["plan_store.corrupt"] == 1
        assert len(store) == 0  # the garbage row is gone
        store.close()


class TestLru:
    def test_prunes_least_recently_used(self, tmp_path, result):
        with obs_context() as obs:
            with PlanStore(tmp_path / "p.sqlite", max_entries=2) as store:
                store.put("a", result)
                store.put("b", result)
                store.get("a")  # refresh a; b is now LRU
                store.put("c", result)
                assert sorted(store.keys()) == ["a", "c"]
            assert obs.metrics.counters()["plan_store.evictions"] == 1

    def test_prunes_by_hits_since_last_put(self, tmp_path, result):
        """Hits not yet on disk still decide which row the next put
        prunes: the oldest put survives because it was read since."""
        path = tmp_path / "p.sqlite"
        with obs_context() as obs:
            with PlanStore(path, max_entries=3) as store:
                for key in ("a", "b", "c"):
                    store.put(key, result)
                store.get("b")
                store.get("a")
                store.put("d", result)
                assert sorted(store.keys()) == ["a", "b", "d"]
                store.get("d")
                store.get("b")
                store.put("e", result)
                assert sorted(store.keys()) == ["b", "d", "e"]
            assert obs.metrics.counters()["plan_store.evictions"] == 2
        usage = _usage(path)
        assert usage["b"][1] == 2 and usage["d"][1] == 1

    def test_rejects_nonpositive_cap(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            PlanStore(tmp_path / "p.sqlite", max_entries=0)


class TestPlanCacheBacking:
    def test_store_tier_sits_between_memory_and_disk(self, tmp_path, result):
        store = PlanStore(tmp_path / "p.sqlite")
        cache = PlanCache(backing=store, max_entries=1)
        cache.store("k1", result)
        cache.store("k2", result)  # evicts k1 from the memory tier
        hit, tier = cache.lookup_tiered("k1")
        assert tier == "store"
        assert result_to_json(hit) == result_to_json(result)
        # The store hit was promoted back into memory.
        _, tier = cache.lookup_tiered("k1")
        assert tier == "memory"
        store.close()

    def test_cached_search_replays_from_store_across_caches(self, tmp_path):
        """A fresh process (new PlanCache) replays bit-identically."""
        path = tmp_path / "p.sqlite"
        kwargs = dict(n_draws=8, n_candidates=4, refine_rounds=0)
        with PlanStore(path) as store:
            first = optimized_plan(
                3, cache=PlanCache(backing=store), **kwargs
            )
        with PlanStore(path) as store:
            cache = PlanCache(backing=store)
            replay = optimized_plan(3, cache=cache, **kwargs)
            assert cache.hits == 1 and cache.misses == 0
        assert result_to_json(replay) == result_to_json(first)
