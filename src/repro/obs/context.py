"""Context-scoped observability provider.

One :class:`ObsContext` bundles the two telemetry surfaces of a run -- a
:class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry` -- behind a
``contextvars.ContextVar``.  The runtime reads whatever context is current
(:func:`current_obs`); the CLI and tests open a fresh scope with
:func:`obs_context`, so concurrent or back-to-back runs never
cross-contaminate.

Spans are the only timing record.  :meth:`ObsContext.stage_span` marks a
span as a runtime *stage* (``stage`` and ``trials`` attributes); the
``--timings`` table is a view over those spans
(:func:`repro.experiments.report.runtime_table`).

A lazily created process-default context backs :func:`current_obs` when no
scope is active, for ad-hoc scripts.  Its tracer is capped so an un-scoped
long session cannot grow without bound, so anything that counts spans
should run under its own :func:`obs_context`.

Worker processes get a fresh context per chunk
(:func:`repro.runtime.runner` wraps chunk functions); the context's
:meth:`ObsContext.export_state` / :meth:`ObsContext.absorb_state` pair is
the wire format that carries worker telemetry back over the pool-result
path for merging in the parent.

This module imports nothing from :mod:`repro.runtime`, so the runtime can
record into it without import cycles.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

DEFAULT_MAX_SPANS = 4096
"""Span-retention cap of the process-default (un-scoped) tracer."""

STATE_VERSION = 2
"""Version tag of the worker -> parent telemetry payload."""


@dataclass
class ObsContext:
    """One run's tracer + metrics registry.

    ``profile`` opts the runtime into its pool-profiling hooks (dispatch
    latency, queue wait, chunk skew, serialization overhead -- see
    :mod:`repro.runtime.runner`).  It defaults off and every hook is
    gated on it, so un-profiled runs pay only a boolean check.
    """

    tracer: Tracer
    metrics: MetricsRegistry
    profile: bool = False

    @contextmanager
    def stage_span(self, name: str, trials: int = 0, **attrs: Any) -> Iterator[Any]:
        """Time a block as a stage span: ``stage=True`` plus ``trials``.

        The ``stage`` marker is what puts the span in the ``--timings``
        table; plain spans that happen to carry ``trials`` stay out of it.
        Yields the span so the block can attach result attributes.
        """
        with self.tracer.span(
            name, stage=True, trials=trials, **attrs
        ) as span:
            yield span

    def export_state(self) -> Dict[str, Any]:
        """Picklable/JSON-able snapshot for the pool-result path."""
        return {
            "version": STATE_VERSION,
            "metrics": self.metrics.to_dict(),
            "spans": self.tracer.to_dicts(),
        }

    def absorb_state(
        self,
        payload: Dict[str, Any],
        extra_attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Merge a worker context's :meth:`export_state` into this one."""
        self.metrics.merge_dict(payload.get("metrics") or {})
        self.tracer.absorb(payload.get("spans") or [], extra_attrs=extra_attrs)


def _new_context(
    max_spans: Optional[int] = None, profile: bool = False
) -> ObsContext:
    return ObsContext(
        tracer=Tracer(max_spans=max_spans),
        metrics=MetricsRegistry(),
        profile=profile,
    )


_DEFAULT: Optional[ObsContext] = None
_CURRENT: ContextVar[Optional[ObsContext]] = ContextVar(
    "repro_obs_context", default=None
)


def default_obs() -> ObsContext:
    """The process-default context used when no scope is active."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = _new_context(max_spans=DEFAULT_MAX_SPANS)
    return _DEFAULT


def current_obs() -> ObsContext:
    """The active :class:`ObsContext` (the process default outside scopes)."""
    context = _CURRENT.get()
    return context if context is not None else default_obs()


@contextmanager
def obs_context(
    context: Optional[ObsContext] = None,
    max_spans: Optional[int] = None,
    profile: bool = False,
) -> Iterator[ObsContext]:
    """Run a block under a fresh (or supplied) observability context.

    Everything the runtime records inside the block -- spans (stage spans
    included), metrics, worker payload merges -- lands in the yielded context
    and nowhere else.  ``profile=True`` turns on the runtime's
    pool-profiling hooks for the scope.
    """
    context = (
        context
        if context is not None
        else _new_context(max_spans=max_spans, profile=profile)
    )
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)
