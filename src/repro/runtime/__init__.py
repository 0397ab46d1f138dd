"""Shared Monte-Carlo execution engine for the Section 6 experiments.

Every figure in the paper's evaluation is a Monte-Carlo sweep: realize a
blind channel, synthesize a waveform, measure a peak, repeat. The seed
implementation ran one trial per Python-loop iteration; this subsystem is
the production trial engine the experiment drivers share instead:

* :mod:`repro.runtime.engine` -- **batched evaluation**: channel draws are
  stacked into ``(D, N)`` arrays and whole trial batches flow through the
  batched-FFT envelope path (or a chunked direct-envelope path when the
  offsets are not FFT-compatible), eliminating the per-trial loop.
* :mod:`repro.runtime.runner` -- **process-pool fan-out**:
  :class:`TrialRunner` chunks trials across its own pool of worker
  processes, driven over one pipe each, with deterministic per-chunk
  ``SeedSequence`` spawning, so results are bit-identical regardless of
  worker count (``workers=1`` runs in-process); a runner's pool lives as
  long as the runner, so one runner per experiment run forks once.
* :mod:`repro.runtime.adaptive` -- **streaming adaptive allocation**:
  :func:`adaptive_map_chunks` requests trials in successive batches per
  sweep point, maintains online confidence intervals
  (:class:`MeanTracker` / :class:`ProportionTracker`), and stops each
  point once its half-width meets the :class:`AdaptiveConfig` target --
  bitwise identical to a fixed run of the same trial count.
* :mod:`repro.runtime.cache` -- **plan caching**: an in-memory + SQLite
  cache for :class:`~repro.core.optimizer.FrequencyOptimizer` search
  results, keyed by a hash of the full search configuration, so repeated
  benches stop re-running the multi-second Eq. 10 search.

Telemetry (trace spans, metric counters/histograms) is scoped to the
current :class:`repro.obs.context.ObsContext` rather than process globals;
worker processes export their context back over the pool-result path and
the parent merges it, so ``--timings`` and ``--metrics-out`` stay complete
under ``--workers N``.  Hot stages are timed as stage spans
(:meth:`repro.obs.context.ObsContext.stage_span`); the ``--timings`` table
is :func:`repro.experiments.report.runtime_table` over them.  See
:mod:`repro.obs` for the tracer / metrics / manifest subsystem.
"""

from repro.runtime.adaptive import (
    AdaptiveConfig,
    AdaptiveOutcome,
    MeanTracker,
    ProportionTracker,
    adaptive_map_chunks,
)
from repro.runtime.cache import (
    PlanCache,
    configure_plan_cache,
    configure_search,
    get_plan_cache,
    get_search_defaults,
    optimized_conduction_plan,
    optimized_plan,
    search_key,
)
from repro.runtime.engine import fft_compatible, peak_amplitudes
from repro.runtime.runner import TrialRunner

__all__ = [
    "AdaptiveConfig",
    "AdaptiveOutcome",
    "MeanTracker",
    "PlanCache",
    "ProportionTracker",
    "TrialRunner",
    "adaptive_map_chunks",
    "configure_plan_cache",
    "configure_search",
    "fft_compatible",
    "get_plan_cache",
    "get_search_defaults",
    "optimized_conduction_plan",
    "optimized_plan",
    "peak_amplitudes",
    "search_key",
]
