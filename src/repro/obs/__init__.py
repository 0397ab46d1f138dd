"""Observability for the Monte-Carlo runtime: traces, metrics, manifests.

Complementary surfaces, all scoped to an :class:`ObsContext` (a
``contextvars``-backed provider) instead of process globals:

* :mod:`repro.obs.trace` -- nested span tracing with monotonic timestamps
  and JSONL export; answers *where did the time go inside one run*.
  Spans are the only timing record: the runtime's hot stages are stage
  spans (:meth:`ObsContext.stage_span`), and the CLI's ``--timings``
  table is a view over them.
* :mod:`repro.obs.metrics` -- counters / gauges / fixed-bucket histograms
  with worker-to-parent merging; answers *how much work happened* (trials,
  cache hits, chunk wall-times, envelope-peak distribution).
* :mod:`repro.obs.manifest` -- JSON run manifests (configs, seeds, git
  rev, versions, metric summary); answers *how do I reproduce this table*.
* :mod:`repro.obs.analyze` -- trace analytics over exported spans
  (self-time aggregates, critical path, worker occupancy, collapsed-stack
  flamegraph export); answers *why was it slow*.

The runtime (:mod:`repro.runtime`) records into whatever context is
current; the experiments CLI opens a scope per invocation and offers
``--trace-out`` / ``--metrics-out`` / ``--manifest-out`` plus an
``obs-report`` renderer. See the "Observability" section of DESIGN.md for
the span and metric name inventory.
"""

from repro.obs.analyze import (
    TraceAnalysis,
    analyze_trace,
    collapsed_stacks,
    write_collapsed,
)
from repro.obs.context import (
    ObsContext,
    current_obs,
    default_obs,
    obs_context,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    read_manifest,
    run_record,
    validate_manifest,
    write_manifest,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    Span,
    Tracer,
    read_jsonl,
    validate_span_dict,
)

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsContext",
    "Span",
    "TraceAnalysis",
    "Tracer",
    "analyze_trace",
    "build_manifest",
    "collapsed_stacks",
    "current_obs",
    "default_obs",
    "obs_context",
    "read_jsonl",
    "read_manifest",
    "run_record",
    "validate_manifest",
    "validate_span_dict",
    "write_collapsed",
    "write_manifest",
]
