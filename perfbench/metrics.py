"""The benchmark's metrics: names, units, and how a traced run fills them.

Every run prints every metric of its kind, so the end-to-end metrics are
defined for every workload; what each one times is the workload's own
unit of work (see ``perfbench/README.md``). Per-layer metrics that a
workload never touches read zero.
"""

from typing import Dict

from perfbench import spans
from perfbench.hooks import LAYERS

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rate_per_s": "1/s",
}

SPAN_SELF_TIMES = (
    "em.realize",
    "core.envelope",
    "core.peak_amplitudes",
    "core.search",
    "harvester.input_voltage",
    "sensors.power_up",
    "sensors.query_decode",
    "gen2.pie_encode",
    "gen2.reply",
    "gen2.encode_chips_block",
    "reader.amplitude",
    "reader.capture",
    "reader.decode",
    "link.glue",
    "kernels.capture_batch",
    "kernels.capture_block",
    "kernels.fm0_block_errors",
    "runtime.cache_lookup",
    "serve.store_get",
    "serve.store_put",
    "fleet.population",
    "fleet.inventory",
)

COUNTS = {
    "link.trials": "count",
    "link.powered": "count",
    "link.query_decoded": "count",
    "link.replied": "count",
    "link.success": "count",
    "link.success_ratio": "ratio",
    "kernels.capture_samples": "count",
    "runtime.maps": "count",
    "runtime.chunks": "count",
    "runtime.chunk_retries": "count",
    "sweep.probes": "count",
    "sweep.trials": "count",
    "serve.source.memory": "count",
    "serve.source.store": "count",
    "serve.source.computed": "count",
    "serve.source.coalesced": "count",
    "serve.hit_ratio": "ratio",
    "serve.batches": "count",
    "serve.batch_occupancy": "ratio",
    "core.stacked_calls": "count",
    "core.candidates_scored": "count",
    "fleet.tags": "count",
    "fleet.reads": "count",
    "fleet.rounds": "count",
    "fleet.slots": "count",
    "fleet.collision_slots": "count",
    "fleet.captures": "count",
    "fleet.reads_per_slot": "ratio",
}

DERIVED_TIMES = ("runtime.dispatch_s", "serve.batch_wait_s")
"""Per-layer times a workload computes itself rather than from one span."""

PER_LAYER: Dict[str, str] = {
    **{f"self.{layer}_s": "s" for layer in (*LAYERS, "unattributed")},
    "traced_wall_s": "s",
    "untraced_wall_s": "s",
    "trace_overhead_pct": "%",
    **{f"{name}_s": "s" for name in SPAN_SELF_TIMES},
    **{name: "s" for name in DERIVED_TIMES},
    **COUNTS,
}


def per_layer(traced: Dict) -> Dict[str, float]:
    """Fill every per-layer metric from a workload's ``trace()`` result.

    ``traced`` holds the recorder, the traced wall interval, the untraced
    wall seconds of the same work, and the workload's counts (which may
    include derived times); ``overhead_pct``, when present, replaces the
    wall-time ratio as the tracing overhead.
    """
    recorder: spans.Recorder = traced["recorder"]
    wall = traced["wall"]
    by_layer, by_name = spans.layer_report(recorder.spans, wall, LAYERS)
    values = {f"self.{layer}_s": seconds for layer, seconds in by_layer.items()}
    traced_s = wall[1] - wall[0]
    values.update(
        traced_wall_s=traced_s,
        untraced_wall_s=traced["untraced_s"],
        trace_overhead_pct=traced.get(
            "overhead_pct", 100.0 * (traced_s / traced["untraced_s"] - 1.0)
        ),
    )
    for name in SPAN_SELF_TIMES:
        values[f"{name}_s"] = by_name.get(name, 0.0)
    counts = {**recorder.counts, **traced["counts"]}
    for name in (*DERIVED_TIMES, *COUNTS):
        values[name] = counts.get(name, 0)
    return values
