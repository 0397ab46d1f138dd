"""Unit tests for the runtime's stage timing: stage spans and ``--timings``.

Hot runtime stages are timed as stage spans
(:meth:`repro.obs.context.ObsContext.stage_span`); the ``--timings`` table
is :func:`repro.experiments.report.runtime_table` over the exported spans.
"""

import pytest

from repro.experiments.report import runtime_table
from repro.obs.context import obs_context


def rows_of(table):
    """``{stage: (wall_s, calls, trials, trials_per_s)}`` without TOTAL."""
    return {row[0]: tuple(row[1:]) for row in table.rows if row[0] != "TOTAL"}


def stage_dict(name, start_s, end_s, trials=0, span_id=1):
    """An exported stage-span dict as ``stage_span`` records it."""
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": None,
        "start_s": start_s,
        "end_s": end_s,
        "attrs": {"stage": True, "trials": trials},
    }


class TestInstrumentation:
    def test_stage_accumulates(self):
        with obs_context() as obs:
            with obs.stage_span("evaluate", trials=10):
                pass
            with obs.stage_span("evaluate", trials=5):
                pass
            rows = rows_of(runtime_table(obs.tracer.to_dicts()))
        assert list(rows) == ["evaluate"]
        wall_s, calls, trials, trials_per_s = rows["evaluate"]
        assert wall_s >= 0.0
        assert calls == 2
        assert trials == 15
        assert trials_per_s >= 0.0

    def test_stage_records_on_exception(self):
        with obs_context() as obs:
            with pytest.raises(RuntimeError):
                with obs.stage_span("broken"):
                    raise RuntimeError("boom")
            rows = rows_of(runtime_table(obs.tracer.to_dicts()))
        assert rows["broken"][1] == 1

    def test_total_and_reset(self):
        table = runtime_table(
            [
                stage_dict("a", 0.0, 1.5, trials=3, span_id=1),
                stage_dict("b", 2.0, 2.5, span_id=2),
            ]
        )
        assert table.column("stage") == ["a", "b", "TOTAL"]
        assert table.rows[-1][1] == 2.0
        with obs_context() as obs:
            with obs.stage_span("a", trials=1):
                pass
            obs.tracer.clear()
            table = runtime_table(obs.tracer.to_dicts())
        assert table.rows == [("TOTAL", 0.0, "", "", "")]

    def test_zero_wall_throughput_is_zero(self):
        table = runtime_table([stage_dict("a", 1.0, 1.0, trials=100)])
        assert rows_of(table)["a"] == (0.0, 1, 100, 0.0)

    def test_plain_span_with_trials_is_not_a_stage(self):
        # runtime.adaptive sets ``trials`` on its plain adaptive.point span;
        # only the explicit ``stage`` marker puts a span in the table.
        with obs_context() as obs:
            with obs.tracer.span("adaptive.point") as span:
                with obs.stage_span("power_up.evaluate", trials=8):
                    pass
                span.attrs["trials"] = 8
            rows = rows_of(runtime_table(obs.tracer.to_dicts()))
        assert list(rows) == ["power_up.evaluate"]
        assert rows["power_up.evaluate"][2] == 8

    def test_worker_payload_round_trip(self):
        with obs_context() as worker:
            with worker.stage_span("evaluate", trials=10):
                pass
            with worker.stage_span("evaluate", trials=5):
                pass
            with worker.stage_span("realize", trials=15):
                pass
            payload = worker.export_state()
        with obs_context() as parent:
            with parent.stage_span("evaluate", trials=20):
                pass
            parent.absorb_state(payload, extra_attrs={"subprocess": True})
            rows = rows_of(runtime_table(parent.tracer.to_dicts()))
        assert rows["evaluate"][1:3] == (3, 35)  # calls, trials
        assert rows["realize"][1:3] == (1, 15)

    def test_runtime_table_renders(self):
        table = runtime_table(
            [stage_dict("gain_trials.evaluate", 0.0, 0.25, trials=100)]
        )
        assert table.column("stage") == ["gain_trials.evaluate", "TOTAL"]
        assert table.rows[0][4] == 400.0
        rendered = table.render()
        assert "trials/s" in rendered
        assert "TOTAL" in rendered
