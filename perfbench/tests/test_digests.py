"""Outputs still match the digests recorded when the benchmark was defined.

``perfbench/digests.json`` holds the output digest of every workload for
seeds 1-10 at the benchmark's ``run_seconds``. A change that claims to
keep outputs unchanged must keep these tests passing; one that changes
outputs on purpose records new digests and says why.
"""

import json
from pathlib import Path

import pytest

from perfbench import common
from perfbench.workloads import depth_sweep, fleet_inventory, link_invivo, plan_serve

ROOT = Path(__file__).resolve().parents[2]
RECORDED = json.loads((ROOT / "perfbench" / "digests.json").read_text())
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


@pytest.mark.parametrize("seed", sorted(RECORDED["link_invivo"], key=int))
def test_link_digest(seed):
    matrix, errors = link_invivo._run_matrix(int(seed))
    assert errors == []
    assert common.digest(matrix) == RECORDED["link_invivo"][seed]


def test_sweep_digest():
    _, result = depth_sweep._table(1, 1)
    assert common.digest(depth_sweep.output(result)) == RECORDED["depth_sweep"]["1"]


def test_fleet_digest():
    assert common.digest(fleet_inventory._campaign(1, 1)) == RECORDED["fleet_inventory"]["1"]


def test_serve_digest_from_cold_searches():
    from repro.serve.service import parse_request

    _, light, heavy = plan_serve._phases(1, SECONDS)
    records = light + heavy
    by_key = {parse_request(r.payload).key: r.payload for r in records}
    plans, _ = plan_serve.cold_plans(list(by_key.values()))
    assert plan_serve._digest(plans, records) == RECORDED["plan_serve"]["1"]
