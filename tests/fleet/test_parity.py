"""Batched fleet paths against their per-tag and per-slot references.

:func:`repro.fleet.population.generate_shard` realizes a shard through
batched seed hashing and an ``(n, A)`` Eq. 2 array, and
:func:`repro.fleet.campaign.shard_airtime_s` charges airtime by slot kind;
both must match the scalar loops in ``tests/reference/fleet.py`` bit for
bit, generator states included.
"""

import numpy as np
import pytest

from repro.faults.plan import (
    EMPTY_PLAN,
    FaultPlan,
    antenna_dropout,
    tag_detuning,
)
from repro.fleet.campaign import FleetCampaignConfig, shard_airtime_s
from repro.fleet.collision import RoundOutcome, ShardInventoryResult, run_inventory
from repro.fleet.population import FleetConfig, generate_shard
from repro.harvester.tag_power import HarvesterFrontEnd
from tests.reference.fleet import (
    generate_shard_reference,
    shard_airtime_reference,
)

_MEDIA = ("air", "muscle", "water", "fat", "gastric fluid")
_PLANS = (
    EMPTY_PLAN,
    antenna_dropout(),
    antenna_dropout(antennas=(0, 2), probability=0.5),
    tag_detuning(0.5, probability=0.7),
    FaultPlan(
        events=antenna_dropout(probability=0.6).events
        + tag_detuning(0.3).events
    ),
)


def _random_cases(count=32, seed=2026):
    """Fleets over both media kinds, both tags, 1-16 antennas, zero-width
    depth bands and every fault-plan shape the generator handles."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        depth_min = float(rng.uniform(0.0, 0.08))
        width = 0.0 if i % 4 == 0 else float(rng.uniform(0.0, 0.06))
        n_tags = int(rng.integers(1, 40))
        config = FleetConfig(
            n_tags=n_tags,
            depth_min_m=depth_min,
            depth_max_m=depth_min + width,
            medium=_MEDIA[i % len(_MEDIA)],
            standoff_m=float(rng.uniform(0.1, 1.5)),
            n_antennas=1 + i % 16,
            eirp_per_antenna_w=float(rng.uniform(0.5, 10.0)),
            tag=("standard", "miniature")[i % 2],
            n_shards=int(rng.integers(1, min(n_tags, 3) + 1)),
            seed=int(rng.integers(0, 2**40)),
        )
        cases.append((config, _PLANS[i % len(_PLANS)]))
    return cases


CASES = _random_cases()


def _assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "config, plan", CASES, ids=[f"case{i}" for i in range(len(CASES))]
)
def test_generate_shard_matches_reference(config, plan):
    for shard in range(config.n_shards):
        got = generate_shard(config, shard, fault_plan=plan)
        want = generate_shard_reference(config, shard, fault_plan=plan)
        for name in (
            "epc_bits",
            "reply_amplitude_v",
            "powered",
            "global_indices",
            "depths_m",
            "input_voltage_v",
        ):
            _assert_same_array(getattr(got, name), getattr(want, name))
        assert [r.bit_generator.state for r in got.mac_rngs] == [
            r.bit_generator.state for r in want.mac_rngs
        ]


def test_shard_reaches_voltage_in_one_front_end_call(monkeypatch):
    calls = []
    original = HarvesterFrontEnd.input_voltage_amplitude_v

    def counting(self, fields, *args):
        calls.append(np.shape(fields))
        return original(self, fields, *args)

    monkeypatch.setattr(
        HarvesterFrontEnd, "input_voltage_amplitude_v", counting
    )
    config, plan = CASES[3]
    for shard in range(config.n_shards):
        got = generate_shard(config, shard, fault_plan=plan)
        assert calls[-1] == (got.n_tags,)
    assert len(calls) == config.n_shards


def test_cases_cover_the_generator_inputs():
    configs = [config for config, _ in CASES]
    assert {c.medium for c in configs} >= {"air", "muscle"}
    assert {c.tag for c in configs} == {"standard", "miniature"}
    assert {c.n_antennas for c in configs} == set(range(1, 17))
    assert any(c.depth_min_m == c.depth_max_m for c in configs)
    assert {plan for _, plan in CASES} == set(_PLANS)


def _synthetic_result(seed, n_rounds=40):
    """Rounds of every slot kind, thousands of slots: enough terms that
    any other summation order rounds the total differently."""
    rng = np.random.default_rng(seed)
    result = ShardInventoryResult(shard=0, n_tags=0, n_powered=0)
    for _ in range(n_rounds):
        q = int(rng.integers(0, 9))
        counts = rng.integers(0, 4, size=2**q).astype(np.int32)
        decoded = (counts > 0) & (rng.uniform(size=counts.size) < 0.5)
        result.rounds.append(
            RoundOutcome(
                q=q,
                n_replies=counts,
                decoded=decoded,
                winners=np.full(counts.size, -1, dtype=np.int64),
            )
        )
    return result


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("blf_hz", [40e3, 160e3, 640e3])
def test_airtime_matches_reference_on_synthetic_rounds(seed, blf_hz):
    result = _synthetic_result(seed)
    assert shard_airtime_s(result, blf_hz) == shard_airtime_reference(
        result, blf_hz
    )


def test_airtime_matches_reference_on_campaign_shards():
    campaign = FleetCampaignConfig.fast()
    capture = campaign.capture_model()
    for population, band, n_antennas in campaign.cells():
        fleet = campaign.fleet_config(population, band, n_antennas)
        for shard in range(fleet.n_shards):
            result = run_inventory(
                generate_shard(fleet, shard),
                capture,
                initial_q=fleet.initial_q,
                max_rounds=fleet.max_rounds,
                seed_material=fleet.seed_material(),
                seed=fleet.seed,
                shard_index=shard,
            )
            assert shard_airtime_s(
                result, campaign.blf_hz
            ) == shard_airtime_reference(result, campaign.blf_hz)


def test_airtime_of_no_rounds_is_zero():
    empty = ShardInventoryResult(shard=0, n_tags=0, n_powered=0)
    assert shard_airtime_s(empty, 40e3) == 0.0
