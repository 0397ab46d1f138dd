"""Tests for the context-scoped observability provider."""

from repro.experiments.report import runtime_table
from repro.obs.context import (
    STATE_VERSION,
    current_obs,
    default_obs,
    obs_context,
)


def stage_rows(obs):
    """``{stage: (calls, trials)}`` of ``obs``'s ``--timings`` table."""
    table = runtime_table(obs.tracer.to_dicts())
    return {row[0]: (row[2], row[3]) for row in table.rows[:-1]}


class TestScoping:
    def test_default_context_is_a_stable_singleton(self):
        assert current_obs() is current_obs()
        assert current_obs() is default_obs()

    def test_scope_isolates_telemetry(self):
        outside = current_obs()
        with obs_context() as obs:
            assert current_obs() is obs
            assert obs is not outside
            with obs.stage_span("stage", trials=1):
                pass
            obs.metrics.counter("c").inc()
            assert stage_rows(obs) == {"stage": (1, 1)}
        assert current_obs() is outside
        # Nothing leaked into the default context.
        assert "stage" not in stage_rows(outside)
        assert outside.metrics.counter("c").value == 0

    def test_nested_scopes_restore_in_order(self):
        with obs_context() as outer:
            with obs_context() as inner:
                assert current_obs() is inner
            assert current_obs() is outer


class TestStageSpan:
    def test_records_stage_and_span_together(self):
        with obs_context() as obs:
            with obs.stage_span("engine.evaluate", trials=5, tier="fft"):
                pass
            assert stage_rows(obs) == {"engine.evaluate": (1, 5)}
            (span,) = obs.tracer.spans
            assert span.name == "engine.evaluate"
            assert span.attrs == {"stage": True, "trials": 5, "tier": "fft"}


class TestWorkerStateRoundTrip:
    def test_export_then_absorb_merges_everything(self):
        with obs_context() as worker:
            with worker.stage_span("gain.evaluate", trials=10):
                pass
            worker.metrics.counter("trials.processed").inc(10)
            worker.metrics.histogram("wall", edges=(0.1, 1.0)).observe(0.5)
            with worker.tracer.span("runner.chunk", start=0):
                pass
            payload = worker.export_state()
        assert set(payload) == {"version", "metrics", "spans"}
        assert payload["version"] == STATE_VERSION == 2

        with obs_context() as parent:
            with parent.stage_span("gain.evaluate", trials=5):
                pass
            parent.absorb_state(payload, extra_attrs={"subprocess": True})
            assert stage_rows(parent) == {"gain.evaluate": (2, 15)}
            assert parent.metrics.counter("trials.processed").value == 10
            assert parent.metrics.histogram("wall").count == 1
            (chunk,) = [
                s for s in parent.tracer.spans if s.name == "runner.chunk"
            ]
            assert chunk.attrs["subprocess"] is True

    def test_payload_is_json_safe(self):
        import json

        with obs_context() as obs:
            with obs.stage_span("s", trials=1):
                pass
            obs.metrics.counter("c").inc()
            with obs.tracer.span("x"):
                pass
            payload = obs.export_state()
        assert json.loads(json.dumps(payload)) == payload
