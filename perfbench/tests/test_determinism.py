"""The same seed gives the same digest and the same counts twice."""

import json
import subprocess
import sys
from pathlib import Path

from perfbench import common, metrics, spans
from perfbench.hooks import HOOKS
from perfbench.workloads import depth_sweep, fleet_inventory, link_invivo, plan_serve

ROOT = Path(__file__).resolve().parents[2]


def test_link_matrix_digest_and_stage_counts_repeat():
    first = [link_invivo._run_matrix(7) for _ in range(2)]
    assert first[0] == first[1]
    assert common.digest(first[0][0]) != common.digest(link_invivo._run_matrix(8)[0])


def test_sweep_digest_and_probe_counts_repeat():
    runs = []
    for _ in range(2):
        recorder = spans.Recorder()
        with recorder.installed(HOOKS):
            _, result = depth_sweep._table(5, 1)
        runs.append((common.digest(depth_sweep.output(result)), recorder.counts))
    assert runs[0] == runs[1]
    assert runs[0][1]["sweep.probes"] > 100


def test_fleet_digest_and_counts_repeat():
    runs = [fleet_inventory.trace(None, 3, 0.01) for _ in range(2)]  # one campaign each
    assert runs[0]["digest"] == runs[1]["digest"]
    assert runs[0]["counts"] == runs[1]["counts"]
    assert runs[0]["errors"] == []


def test_serve_schedules_repeat_and_new_keys_are_unique():
    first = plan_serve._phases(4, 10.0)
    second = plan_serve._phases(4, 10.0)
    for a, b in zip(first[1:], second[1:]):
        assert [(r.payload, r.due) for r in a] == [(r.payload, r.due) for r in b]
    seeds = [r.payload["seed"] for r in first[1] + first[2]]
    new = [s for s in seeds if s >= plan_serve.NEW_KEY_SEED_BASE]
    assert new and len(new) == len(set(new))
    other = plan_serve._phases(5, 10.0)[2]
    assert [r.payload for r in other] != [r.payload for r in first[2]]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    from perfbench.run import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text((ROOT / "perfbench" / "run.py").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "link_invivo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
