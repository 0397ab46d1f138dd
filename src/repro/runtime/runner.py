"""Deterministic process-pool fan-out for Monte-Carlo trial chunks.

:class:`TrialRunner` splits a trial range into contiguous ``(start, count)``
spans and maps a chunk function over them, either in-process
(``workers=1``) or across a ``concurrent.futures.ProcessPoolExecutor``.

A runner owns its pool for its whole lifetime: the first pooled map starts
``workers`` processes, every later map reuses them, and :meth:`shutdown`
(or leaving a ``with`` block) reaps them. Experiment drivers therefore open
one runner per run and hand it to every measurement helper, so a sweep of
hundreds of small maps (the Fig. 13 bisection probes) pays one pool start,
not one per map.

The determinism contract lives one level down: every chunk function in
:mod:`repro.runtime.engine` re-derives its generators from
``SeedSequence(seed).spawn(n_trials)[start:start + count]``, so per-trial
random streams do not depend on how trials are grouped or which process
executes them. The runner only has to keep the spans contiguous and
concatenate results in span order -- which makes outputs bit-identical for
any ``workers`` / ``chunk_size`` combination.

Observability rides the same result path. Each pool chunk runs inside a
fresh :class:`~repro.obs.context.ObsContext` in the worker; the wrapper
ships ``(result, exported telemetry)`` back and the parent folds stage
timings, metrics and spans into its own context. That is what makes
``--timings`` and ``--metrics-out`` complete under ``--workers N`` instead
of silently dropping everything the hot stages did in child processes.
In-process chunks simply record into the ambient context.

Chunk functions must be picklable for ``workers > 1`` (module-level
functions bound with :func:`functools.partial`, dataclass factories). A
non-picklable function degrades to the in-process path with a warning
rather than failing the experiment.

**Profiling hooks** (opt-in via ``ObsContext.profile``, the CLI's
``--profile``): when enabled, the runner separates orchestration cost from
kernel time -- per-chunk **queue wait** (submit to worker pickup, measured
in the worker against the parent's monotonic timestamp; ``perf_counter``
is CLOCK_MONOTONIC system-wide on Linux), **dispatch latency** (submit to
result arrival minus the chunk's own wall clock, i.e. pure round-trip
overhead), **serialization overhead** (pickling the chunk function and
each result, with byte counters), and **chunk skew** gauges
(max-min wall and max/median ratio across the pool's chunks). Everything
is gated on one boolean so un-profiled runs pay nothing measurable.
"""

import math
import multiprocessing
import os
import pickle
import time
import traceback
import warnings
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ChunkExecutionError
from repro.obs.context import ObsContext, current_obs, obs_context

CHUNK_WALL_HIST_EDGES = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)
"""Fixed bucket edges (seconds) of the ``runner.chunk_wall_s`` histogram."""

PROFILE_WAIT_EDGES = (
    1e-5, 1e-4, 1e-3, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)
"""Bucket edges (seconds) of the profiling wait/overhead histograms."""


def _pool_context():
    """Start method for serving pools: ``forkserver`` where available.

    A lazily *forked* worker inherits every file descriptor open in the
    parent at fork time. In a serving process that includes live client
    sockets; the parent's later ``close()`` then never delivers EOF (the
    workers still hold the fd), so clients reading to end-of-stream hang
    forever. Forkserver workers are forked from a clean helper process
    instead, so they never capture the server's connection fds -- and a
    pool restart after a worker death stays safe mid-traffic too.
    """
    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - platform without forkserver
        return None


def _warm_noop() -> int:
    """Pool warm-up task (module-level, hence picklable)."""
    return os.getpid()


def _run_chunk(
    fn: Callable[[int, int], Any],
    start: int,
    count: int,
    obs: ObsContext,
    label: str = "runner.chunk",
) -> Any:
    """Run one chunk under ``obs`` with a span + chunk-wall metrics."""
    began = time.perf_counter()
    with obs.tracer.span(label, start=start, count=count):
        result = fn(start, count)
    wall_s = time.perf_counter() - began
    obs.metrics.counter("runner.chunks").inc()
    obs.metrics.histogram(
        "runner.chunk_wall_s", CHUNK_WALL_HIST_EDGES
    ).observe(wall_s)
    return result


def _failure_traceback(exc: BaseException) -> str:
    """The most useful traceback text for a pool-chunk failure.

    ``concurrent.futures`` re-raises worker exceptions in the parent with
    the original formatted traceback attached as a ``_RemoteTraceback``
    cause; surface that, falling back to the parent-side traceback (e.g.
    for a ``BrokenProcessPool``, where there is no remote frame).
    """
    cause = getattr(exc, "__cause__", None)
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        return str(cause)
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


def _pool_chunk(
    fn: Callable[[int, int], Any],
    label: str,
    start: int,
    count: int,
    profile: bool = False,
    submit_s: Optional[float] = None,
) -> Tuple[Any, Dict[str, Any]]:
    """Worker-process entry: run the chunk in a fresh observability context.

    Returns ``(chunk result, ObsContext.export_state() payload)`` so the
    parent can merge the worker's stage stats, metrics and spans. A fresh
    context (rather than whatever the fork inherited) keeps worker
    telemetry isolated and double-count-free.  The payload additionally
    carries the worker ``pid`` so the parent can stamp absorbed spans with
    their execution lane (occupancy analysis keys on it).  Under
    ``profile``, the time between the parent's ``submit_s`` and chunk
    pickup is recorded as queue wait.
    """
    with obs_context(profile=profile) as obs:
        if profile and submit_s is not None:
            obs.metrics.histogram(
                "runner.queue_wait_s", PROFILE_WAIT_EDGES
            ).observe(max(0.0, time.perf_counter() - submit_s))
        result = _run_chunk(fn, start, count, obs, label)
    state = obs.export_state()
    state["pid"] = os.getpid()
    return result, state


def _chunk_wall_from_state(
    state: Dict[str, Any], label: str
) -> Optional[float]:
    """The chunk root span's wall clock inside a worker's telemetry."""
    for span in state.get("spans") or []:
        if span.get("name") == label and span.get("parent_id") is None:
            return float(span.get("duration_s") or 0.0)
    return None


class TrialRunner:
    """Fans trial chunks across worker processes deterministically.

    The pool lives as long as the runner: it starts lazily at the first
    pooled ``map_*`` call, sized ``workers``, and every later map reuses
    it. A broken pool (worker death) is discarded so the next call
    recovers on fresh workers. Use the runner as a context manager (or
    call :meth:`shutdown`) so the workers are reaped on exit. Results are
    bit-identical for any pool history -- the pool only changes *where*
    chunks run.

    Attributes:
        workers: Number of worker processes; 1 runs everything in-process.
        chunk_size: Trials per chunk. Defaults to ``ceil(n / workers)`` so
            each worker gets one span.
        persistent: Serve mode. Workers start from a ``forkserver`` helper
            instead of forking the caller, so a long-lived server's open
            client sockets never leak into them, and :meth:`warm_up` can
            start them before traffic arrives. Default runners fork, which
            keeps the workers direct children of the caller.
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        persistent: bool = False,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = int(workers)
        self.chunk_size = chunk_size
        self.persistent = bool(persistent)
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle ---------------------------------------------------------

    def _acquire_pool(self) -> ProcessPoolExecutor:
        """The runner's pool, started on first use and reused after."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_pool_context() if self.persistent else None,
            )
            current_obs().metrics.counter("runner.pool_starts").inc()
        return self._pool

    def warm_up(self) -> None:
        """Start every pool worker now instead of at the first ``map_*``.

        A long-lived serving process calls this before accepting traffic
        so the first batch does not pay worker startup (forkserver
        workers cold-import the runtime stack on their first task).
        Submitting one no-op per worker forces the executor to spawn its
        full complement. No-op for non-persistent or single-worker
        runners.
        """
        if not self.persistent or self.workers == 1:
            return
        pool = self._acquire_pool()
        for future in [
            pool.submit(_warm_noop) for _ in range(self.workers)
        ]:
            future.result()

    def _discard_broken_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop a pool whose worker died so the next call starts afresh."""
        if pool is not self._pool:
            return
        self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)
        current_obs().metrics.counter("runner.pool_restarts").inc()

    def shutdown(self, wait: bool = True) -> None:
        """Release the pool (idempotent; safe to call repeatedly).

        With ``wait`` the workers are joined, so they are reaped before
        this returns. The runner stays usable: a later ``map_*`` call
        lazily starts a fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "TrialRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.shutdown(wait=False)
        except Exception:
            pass

    def spans(self, n_trials: int) -> List[Tuple[int, int]]:
        """Contiguous ``(start, count)`` spans covering ``n_trials``."""
        if n_trials <= 0:
            raise ValueError(f"n_trials must be positive, got {n_trials}")
        return self.range_spans(0, n_trials)

    def range_spans(self, start: int, stop: int) -> List[Tuple[int, int]]:
        """Contiguous ``(start, count)`` spans covering ``[start, stop)``.

        The spans partition the half-open trial range in order, so a
        caller walking successive ranges (the adaptive allocator's
        batches) covers exactly the same absolute trial indices a single
        ``spans(stop)`` call would -- which is what keeps batched
        execution bit-identical to one-shot execution.
        """
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        if stop <= start:
            raise ValueError(
                f"need a non-empty trial range, got [{start}, {stop})"
            )
        size = self.chunk_size or math.ceil((stop - start) / self.workers)
        return [
            (lo, min(size, stop - lo)) for lo in range(start, stop, size)
        ]

    def map_chunks(
        self,
        fn: Callable[[int, int], Any],
        n_trials: int,
        label: str = "runner.chunk",
    ) -> List[Any]:
        """Apply ``fn(start, count)`` to every span, results in span order.

        ``label`` names each chunk's trace span, so non-trial workloads
        dispatched through the runner (e.g. frequency-search islands) stay
        distinguishable from Monte-Carlo chunks in ``--trace-out`` output.
        """
        if n_trials <= 0:
            raise ValueError(f"n_trials must be positive, got {n_trials}")
        return self.map_range(fn, 0, n_trials, label)

    def map_range(
        self,
        fn: Callable[[int, int], Any],
        start: int,
        stop: int,
        label: str = "runner.chunk",
    ) -> List[Any]:
        """Apply ``fn`` to the spans of ``[start, stop)``, in span order.

        The sub-range analogue of :meth:`map_chunks`: chunk functions
        derive their random streams from absolute trial indices, so
        mapping ``[0, a)`` then ``[a, b)`` returns exactly the chunks a
        single ``[0, b)`` map would, regardless of worker count. The
        streaming adaptive allocator is the primary caller.
        """
        spans = self.range_spans(start, stop)
        obs = current_obs()
        if self.workers == 1 or len(spans) == 1:
            return [
                _run_chunk(fn, start, count, obs, label)
                for start, count in spans
            ]
        try:
            pickle.dumps(fn)
        except Exception:  # pickle raises several unrelated types
            warnings.warn(
                "trial chunk function is not picklable; running chunks "
                "in-process instead of across worker processes",
                RuntimeWarning,
                stacklevel=2,
            )
            return [
                _run_chunk(fn, start, count, obs, label)
                for start, count in spans
            ]
        profile = bool(getattr(obs, "profile", False))
        wrapped = partial(_pool_chunk, fn, label, profile=profile)
        if profile:
            began = time.perf_counter()
            payload = pickle.dumps(wrapped)
            obs.metrics.histogram(
                "runner.serialize_s", PROFILE_WAIT_EDGES
            ).observe(time.perf_counter() - began)
            obs.metrics.counter("runner.serialized_bytes").inc(len(payload))
        chunk_walls: List[float] = []
        pool = self._acquire_pool()
        broken = False
        try:
            with obs.tracer.span(
                "runner.pool",
                workers=min(self.workers, len(spans)),
                chunks=len(spans),
            ):
                futures = []
                submit_times = []
                for start, count in spans:
                    submit_s = time.perf_counter()
                    try:
                        future = pool.submit(
                            wrapped,
                            start,
                            count,
                            submit_s=submit_s if profile else None,
                        )
                    except (BrokenExecutor, RuntimeError) as exc:
                        # A reused pool can break (or be shut down)
                        # between calls; surface the failure through
                        # the normal per-chunk retry path so every span
                        # still produces its result in-process.
                        broken = True
                        future = Future()
                        future.set_exception(exc)
                    futures.append(future)
                    submit_times.append(submit_s)
                results = []
                # Results are consumed (and telemetry merged) in span
                # order, never completion order -- that is what keeps
                # last-writer gauge merges deterministic under any pool
                # scheduling.
                for future, (start, count), submit_s in zip(
                    futures, spans, submit_times
                ):
                    try:
                        result, telemetry = future.result()
                    except Exception as exc:
                        if isinstance(exc, BrokenExecutor):
                            broken = True
                        results.append(
                            self._retry_chunk(fn, start, count, obs, label, exc)
                        )
                        continue
                    arrival_s = time.perf_counter()
                    obs.absorb_state(
                        telemetry,
                        extra_attrs={
                            "subprocess": True,
                            "worker": telemetry.get("pid"),
                        },
                    )
                    if profile:
                        self._profile_result(
                            obs,
                            telemetry,
                            label,
                            result,
                            arrival_s - submit_s,
                            chunk_walls,
                        )
                    results.append(result)
        finally:
            if broken:
                self._discard_broken_pool(pool)
        if profile and len(chunk_walls) >= 2:
            chunk_walls.sort()
            mid = len(chunk_walls) // 2
            median = (
                chunk_walls[mid]
                if len(chunk_walls) % 2
                else 0.5 * (chunk_walls[mid - 1] + chunk_walls[mid])
            )
            obs.metrics.gauge("runner.chunk_skew_s").set(
                chunk_walls[-1] - chunk_walls[0]
            )
            if median > 0:
                obs.metrics.gauge("runner.chunk_skew_ratio").set(
                    chunk_walls[-1] / median
                )
        return results

    @staticmethod
    def _profile_result(
        obs: ObsContext,
        telemetry: Dict[str, Any],
        label: str,
        result: Any,
        roundtrip_s: float,
        chunk_walls: List[float],
    ) -> None:
        """Record per-chunk profiling metrics in the parent (opt-in).

        Dispatch latency is the round trip minus the chunk's own wall
        clock: queueing, argument/result pickling, and IPC -- the pool's
        pure orchestration overhead for that chunk.  Result serialization
        is re-measured here (one extra pickle per chunk); that cost only
        exists under ``--profile``.
        """
        wall = _chunk_wall_from_state(telemetry, label)
        if wall is not None:
            chunk_walls.append(wall)
            obs.metrics.histogram(
                "runner.dispatch_latency_s", PROFILE_WAIT_EDGES
            ).observe(max(0.0, roundtrip_s - wall))
        try:
            began = time.perf_counter()
            payload = pickle.dumps(result)
        except Exception:  # unpicklable results never reach this path
            return
        obs.metrics.histogram(
            "runner.serialize_s", PROFILE_WAIT_EDGES
        ).observe(time.perf_counter() - began)
        obs.metrics.counter("runner.result_bytes").inc(len(payload))

    def _retry_chunk(
        self,
        fn: Callable[[int, int], Any],
        start: int,
        count: int,
        obs: ObsContext,
        label: str,
        exc: BaseException,
    ) -> Any:
        """Bounded recovery for one failed pool chunk: retry in-process.

        Chunk functions are deterministic in ``(start, count)``, so an
        in-process re-run yields exactly what the worker would have -- the
        retry cannot change results, only rescue transient worker deaths
        (OOM kills, broken pools). A second failure raises
        :class:`~repro.errors.ChunkExecutionError` carrying the original
        worker traceback so the failure site stays visible across the
        process boundary.
        """
        worker_tb = _failure_traceback(exc)
        warnings.warn(
            f"trial chunk [{start}, {start + count}) failed in a worker "
            f"({type(exc).__name__}: {exc}); retrying once in-process. "
            f"Worker traceback:\n{worker_tb}",
            RuntimeWarning,
            stacklevel=3,
        )
        obs.metrics.counter("runner.chunk_retries").inc()
        try:
            return _run_chunk(fn, start, count, obs, f"{label}.retry")
        except Exception as retry_exc:
            raise ChunkExecutionError(
                f"trial chunk [{start}, {start + count}) failed in a "
                f"worker and again on in-process retry "
                f"({type(retry_exc).__name__}: {retry_exc}); original "
                f"worker traceback:\n{worker_tb}",
                start=start,
                count=count,
                worker_traceback=worker_tb,
            ) from retry_exc
