"""Each workload's output check passes real output and rejects a wrong one."""

import copy
import json

import pytest

from perfbench.workloads import depth_sweep, fleet_inventory, link_invivo, plan_serve


@pytest.fixture(scope="module")
def matrix():
    result, replies = link_invivo._matrix(62)
    return link_invivo.output(result), [tuple(r.bits) for r in replies]


def test_link_check_accepts_the_swine_matrix(matrix):
    assert link_invivo.check(*matrix) == []


def test_link_check_rejects_a_powered_miniature_gastric_tag(matrix):
    table, replies = copy.deepcopy(matrix)
    table["gastric/miniature"][0]["powered"] = True
    assert link_invivo.check(table, replies) == ["gastric/miniature powered up"]


def test_link_check_rejects_a_failed_subcutaneous_trial(matrix):
    table, replies = copy.deepcopy(matrix)
    table["subcutaneous/miniature"][3]["success"] = False
    assert link_invivo.check(table, replies) == ["subcutaneous/miniature failed a trial"]


def test_link_check_rejects_decoded_bits_that_differ_from_the_reply(matrix):
    table, replies = copy.deepcopy(matrix)
    trial = table["subcutaneous/standard"][0]
    trial["bits"][0] ^= 1
    assert link_invivo.check(table, replies) == [
        "a successful decode differs from the reply"
    ]


def _fig13_table():
    """A table with the paper's Fig. 13 shape."""
    counts = range(1, 9)
    return {
        "eirp_w": 5.9,
        "standard/air": [[n, 5.2 * n ** 0.95] for n in counts],
        "miniature/air": [[n, 0.5 * n ** 0.95] for n in counts],
        "standard/water": [[n, 0.0 if n == 1 else 0.27 * (n / 8) ** 0.3] for n in counts],
        "miniature/water": [[n, 0.0 if n == 1 else 0.14 * (n / 8) ** 0.3] for n in counts],
    }


def test_sweep_check_accepts_the_fig13_shape():
    assert depth_sweep.check(_fig13_table()) == []


@pytest.mark.parametrize(
    "panel, index, value, message",
    [
        ("standard/air", 0, 6.0, "calibration anchor off 5.2 m"),
        ("standard/water", 0, 0.01, "water depth at one antenna is not zero"),
        ("miniature/water", 7, 0.3, "miniature water depth at 8"),
    ],
)
def test_sweep_check_rejects_a_wrong_table(panel, index, value, message):
    table = _fig13_table()
    table[panel][index][1] = value
    assert message in depth_sweep.check(table)


@pytest.fixture(scope="module")
def fleet_table():
    from repro.fleet.campaign import FleetCampaignConfig, run_fleet_campaign

    return run_fleet_campaign(FleetCampaignConfig.fast()).to_json_dict()


def test_fleet_check_accepts_a_campaign(fleet_table):
    assert fleet_inventory.check(fleet_table) == []


def test_fleet_check_rejects_more_reads_than_powered_tags(fleet_table):
    table = copy.deepcopy(fleet_table)
    row = table["rows"][0]
    row["n_powered"] = row["reads"] - 1
    assert fleet_inventory.check(table)[0].startswith("cell 0: reads")


def test_fleet_check_rejects_a_schema_break(fleet_table):
    table = copy.deepcopy(fleet_table)
    del table["rows"][1]["captures"]
    assert fleet_inventory.check(table)[0].startswith("fleet table invalid")


def _served(payload, source="memory"):
    from repro.serve.service import parse_request

    plans, _ = plan_serve.cold_plans([payload])
    (key, text), = plans.items()
    record = plan_serve.Record(payload, 0.0, status=200)
    record.response = {
        "status": "ok",
        "key": parse_request(payload).key,
        "kind": payload["kind"],
        "source": source,
        "search_rev": "1",
        "result": json.loads(text),
        "latency_ms": 1.0,
        "power": {"harvested_w": 1e-6},
    }
    return record


@pytest.fixture(scope="module")
def served():
    payload = plan_serve.popular_payloads()[0]
    return [_served(payload), _served(payload, "store")]


def test_serve_check_accepts_one_plan_per_key(served):
    errors, plans = plan_serve.check(served)
    assert errors == [] and len(plans) == 1


def test_serve_check_rejects_two_plans_for_one_key(served):
    records = copy.deepcopy(served)
    records[1].response["result"]["expected_peak"] += 1e-9
    errors, _ = plan_serve.check(records)
    assert any("two different plans" in e for e in errors)


def test_serve_check_rejects_an_invalid_response(served):
    records = copy.deepcopy(served)
    records[0].response["source"] = "guess"
    errors, _ = plan_serve.check(records)
    assert errors == ["response schema: unknown source 'guess'"]


def test_serve_verify_rejects_a_plan_that_differs_from_a_cold_search(served):
    records = copy.deepcopy(served)
    for record in records:
        record.response["result"]["plan"]["offsets_hz"][0] += 1.0
    errors, _ = plan_serve.verify(records, plan_serve.cold_pass()[0])
    assert any("differs from a cold search" in e for e in errors)
