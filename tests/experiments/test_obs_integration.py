"""End-to-end observability tests: CLI artifacts, worker merging, parity.

The hard guarantees under test:

* multiprocess runs merge worker telemetry back into the parent (no more
  silently empty ``--timings`` under ``--workers N``);
* observability never perturbs results -- figure tables are bit-identical
  with tracing/metrics enabled vs disabled, across worker counts;
* the CLI's ``--trace-out`` / ``--metrics-out`` / ``--manifest-out``
  artifacts are schema-valid and mutually consistent.
"""

import json

import pytest

from repro.experiments import fig09
from repro.experiments.cli import main
from repro.experiments.common import TankChannelFactory, measure_gain_trials
from repro.experiments.report import runtime_table
from repro.constants import TANK_STANDOFF_POWER_GAIN_M
from repro.core.plan import paper_plan
from repro.em.phantoms import WaterTankPhantom
from repro.obs import obs_context, read_jsonl, validate_manifest, validate_span_dict
from repro.runtime import cache as cache_mod
from repro.runtime.cache import PlanCache, optimized_plan
from repro.runtime.runner import TrialRunner


class TestWorkerTelemetryMerge:
    @pytest.fixture(scope="class")
    def pooled(self):
        plan = paper_plan().subset(4)
        factory = TankChannelFactory(
            WaterTankPhantom(standoff_m=TANK_STANDOFF_POWER_GAIN_M),
            4,
            0.10,
            plan.center_frequency_hz,
        )
        with obs_context() as obs, TrialRunner(
            workers=2, chunk_size=4
        ) as runner:
            samples = measure_gain_trials(
                factory, plan, n_trials=8, seed=5, runner=runner
            )
        return obs, samples, (factory, plan)

    def test_results_bit_identical_to_single_process(self, pooled):
        obs, samples, (factory, plan) = pooled
        with obs_context():
            reference = measure_gain_trials(factory, plan, n_trials=8, seed=5)
        assert [s.cib_gain for s in samples] == [
            s.cib_gain for s in reference
        ]

    def test_worker_stage_stats_merge_into_parent(self, pooled):
        obs, _, _ = pooled
        table = runtime_table(obs.tracer.to_dicts())
        stages = {row[0]: row for row in table.rows}
        assert stages["gain_trials.realize"][3] == 8  # trials
        assert stages["gain_trials.evaluate"][1] > 0.0  # wall clock
        assert stages["gain_trials.evaluate"][2] == 2  # one per chunk

    def test_worker_metrics_merge_into_parent(self, pooled):
        obs, _, _ = pooled
        counters = obs.metrics.counters()
        assert counters["trials.processed"] == 8
        assert counters["runner.chunks"] == 2
        assert obs.metrics.histogram("envelope.peak").count == 8
        assert obs.metrics.histogram("runner.chunk_wall_s").count == 2

    def test_worker_spans_absorbed_with_subprocess_attr(self, pooled):
        obs, _, _ = pooled
        chunk_spans = [
            s for s in obs.tracer.spans if s.name == "runner.chunk"
        ]
        assert len(chunk_spans) == 2
        assert all(s.attrs.get("subprocess") for s in chunk_spans)
        ids = [s.span_id for s in obs.tracer.spans]
        assert len(ids) == len(set(ids))


class TestObservabilityDoesNotPerturbResults:
    def test_fig09_tables_identical_with_and_without_obs(self):
        plain = fig09.run(fig09.Fig09Config.fast())
        with obs_context():
            traced = fig09.run(
                fig09.Fig09Config(n_trials=15, workers=2)
            )
        assert traced.medians == plain.medians
        assert traced.p10s == plain.p10s
        assert traced.p90s == plain.p90s


class TestPlanCacheCounters:
    def test_hits_and_misses_mirrored_into_metrics(self):
        with obs_context() as obs:
            cache = PlanCache()
            optimized_plan(
                3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
            )
            optimized_plan(
                3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
            )
            counters = obs.metrics.counters()
            assert counters["plan_cache.misses"] == 1
            assert counters["plan_cache.hits"] == 1
            lookups = [
                s for s in obs.tracer.spans if s.name == "plan_cache.lookup"
            ]
            assert [s.attrs["hit"] for s in lookups] == [False, True]

    def test_eviction_counter(self):
        with obs_context() as obs:
            cache = PlanCache(max_entries=1)
            optimized_plan(
                3, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
            )
            optimized_plan(
                4, n_draws=8, n_candidates=4, refine_rounds=0, cache=cache
            )
            assert cache.evictions == 1
            assert obs.metrics.counters()["plan_cache.evictions"] == 1


class TestCliArtifacts:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("obs")
        trace = out / "t.jsonl"
        metrics = out / "m.json"
        manifest = out / "r.json"
        code = main(
            [
                "fig09",
                "--fast",
                "--workers",
                "2",
                "--timings",
                "--trace-out",
                str(trace),
                "--metrics-out",
                str(metrics),
                "--manifest-out",
                str(manifest),
            ]
        )
        assert code == 0
        return trace, metrics, manifest

    def test_trace_is_valid_jsonl(self, artifacts):
        trace, _, _ = artifacts
        spans = read_jsonl(trace)
        assert spans
        for span in spans:
            assert validate_span_dict(span) == []
        ids = {span["span_id"] for span in spans}
        for span in spans:
            if span["parent_id"] is not None:
                assert span["parent_id"] in ids

    def test_metrics_aggregate_parent_and_workers(self, artifacts):
        _, metrics_path, _ = artifacts
        metrics = json.loads(metrics_path.read_text())
        # fig09 fast: 10 antenna counts x 15 trials.
        assert metrics["counters"]["trials.processed"] == 150
        assert metrics["counters"]["runner.chunks"] == 20
        histogram = metrics["histograms"]["envelope.peak"]
        assert histogram["count"] == 150
        assert sum(histogram["counts"]) == 150

    def test_manifest_reconstructs_the_run(self, artifacts):
        trace, _, manifest_path = artifacts
        manifest = json.loads(manifest_path.read_text())
        assert validate_manifest(manifest) == []
        assert manifest["experiment"] == "fig09"
        assert manifest["workers"] == 2
        assert manifest["engine_tiers"] == ["fft"]
        assert manifest["trace_path"] == str(trace)
        run = manifest["runs"][0]
        assert run["config"]["n_trials"] == 15
        assert run["config"]["workers"] == 2
        assert run["seed"] == 9
        assert "--trace-out" in manifest["command"]

    def test_timings_report_nonzero_under_workers(self, capsys, tmp_path):
        code = main(["fig09", "--fast", "--workers", "2", "--timings"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gain_trials.evaluate" in out
        assert "plan cache:" in out
        # The merged stage rows carry nonzero wall time and trial counts.
        for line in out.splitlines():
            if line.startswith("gain_trials.evaluate"):
                parts = line.split()
                assert float(parts[1]) > 0.0
                assert int(parts[3]) == 150

    def test_obs_report_renders_artifacts(self, artifacts, capsys):
        trace, metrics, manifest = artifacts
        code = main(
            [
                "obs-report",
                "--trace-in",
                str(trace),
                "--metrics-in",
                str(metrics),
                "--manifest-in",
                str(manifest),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Run manifest -- fig09" in out
        assert "Trace -- spans aggregated by name" in out
        assert "runner.chunk" in out
        assert "trials.processed" in out

    def test_obs_report_without_inputs_errors(self, capsys):
        assert main(["obs-report"]) == 2


def _timings_rows(out):
    """``{stage: (calls, trials)}`` parsed from a ``--timings`` table."""
    lines = out.splitlines()
    start = lines.index(
        "Runtime -- per-stage wall clock and trial throughput"
    )
    rows = {}
    for line in lines[start + 3:]:
        parts = line.split()
        if parts[0] == "TOTAL":
            return rows
        rows[parts[0]] = (int(parts[2]), int(parts[3]))
    raise AssertionError("--timings table has no TOTAL row")


class TestTimingsAcrossWorkers:
    def test_ablations_rows_agree_across_worker_counts(
        self, capsys, monkeypatch
    ):
        # The CLI reconfigures the process-wide plan cache and search
        # defaults; restore both when the test ends.
        monkeypatch.setattr(cache_mod, "_GLOBAL", None)
        monkeypatch.setattr(
            cache_mod, "_SEARCH_DEFAULTS", dict(cache_mod._SEARCH_DEFAULTS)
        )
        by_workers = {}
        for workers in ("1", "2"):
            code = main(
                [
                    "ablations",
                    "--fast",
                    "--no-plan-cache",
                    "--timings",
                    "--workers",
                    workers,
                ]
            )
            assert code == 0
            by_workers[workers] = _timings_rows(capsys.readouterr().out)
        one, two = by_workers["1"], by_workers["2"]
        assert sorted(one) == sorted(two)
        # Trial counts never depend on the worker count.
        assert {k: v[1] for k, v in one.items()} == {
            k: v[1] for k, v in two.items()
        }
        # Searches run once per call whatever the pool size; chunked
        # Monte-Carlo stages run once per chunk, so only their calls move.
        searches = {
            name: row
            for name, row in one.items()
            if name.startswith(("search.", "plan_search."))
        }
        assert {"search.peak", "search.conduction"} <= set(searches)
        assert all(searches[name] == two[name] for name in searches)
        assert one["search.peak"][1] > 0
        assert one["search.conduction"][1] > 0
