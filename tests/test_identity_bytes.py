"""Golden identity bytes: cache keys, config hashes and stream seeds.

Stored SQLite plan rows, the serve digests, fault-injection streams and
fleet tag streams are all keyed on these digests, so they must not move by
a byte across revisions. The literals were recorded before the hash
helpers were merged into :func:`repro.hashing.stable_digest`.
"""

import hashlib

from repro.core.optimizer import SearchConfig
from repro.faults.plan import EMPTY_PLAN, FaultPlan, antenna_dropout, trigger_desync
from repro.fleet.population import FleetConfig
from repro.hashing import stable_digest
from repro.runtime.adaptive import AdaptiveConfig
from repro.runtime.cache import plan_key, search_key

PAPER_CONSTRAINT = dict(alpha=0.5, query_duration_s=800e-6)


def test_plan_keys():
    assert search_key(SearchConfig(n_antennas=8, **PAPER_CONSTRAINT)) == "89a2c094e79ac490cdd56b89"
    every_field = search_key(
        SearchConfig(
            n_antennas=5, alpha=1.0, query_duration_s=1e-3,
            center_frequency_hz=900e6, n_draws=16, grid_size=4096, seed=3,
            n_candidates=30, refine_rounds=1, refine_steps=(1, 2), islands=2,
        ),
        fault_token="faults:abc", adaptive_token="tok",
    )
    assert every_field == "f3821bdbbe41e035e26714ed"
    conduction = search_key(
        SearchConfig(n_antennas=8, kind="conduction", threshold=2.5, **PAPER_CONSTRAINT)
    )
    assert conduction == "2a0a11a22ef5ebb6a38f3ff0"
    # Values JSON cannot encode enter through their repr.
    assert plan_key(a=1, b=(1, 2), c=1 + 2j) == "2154ea5ae29525208e8ab8ee"


def test_config_hashes():
    plan = FaultPlan(
        events=antenna_dropout(probability=0.6).events + trigger_desync(1.0).events
    )
    assert plan.stable_hash() == "59e8a1aad6cb71c5"
    assert plan.cache_token() == "faults:59e8a1aad6cb71c5"
    assert trigger_desync(1.0).stable_hash() == "0a2adf82bd23965e"
    assert EMPTY_PLAN.cache_token() == "none"
    assert FleetConfig().stable_hash() == "1075da6fc8c552f7"
    assert FleetConfig(n_tags=300, seed=1).stable_hash() == "25dfdf83f620d33f"
    assert AdaptiveConfig().cache_token() == "a563f92c39ce7ace"
    relative = AdaptiveConfig(ci_relative=0.1, min_trials=2, batch_trials=2)
    assert relative.cache_token() == "5a131bb65fa89eff"


def test_stable_digest_is_truncated_sha256_of_sorted_json():
    expected = hashlib.sha256(b'{"a": 1, "b": [2, 3]}').hexdigest()
    assert stable_digest({"b": (2, 3), "a": 1}, 64) == expected
    assert stable_digest({"b": (2, 3), "a": 1}, 10) == expected[:10]
