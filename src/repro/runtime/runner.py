"""Deterministic process-pool fan-out for Monte-Carlo trial chunks.

:class:`TrialRunner` splits a trial range into contiguous ``(start, count)``
spans and maps a chunk function over them, either in-process
(``workers=1``) or across the runner's own pool of ``workers`` processes,
each driven over one duplex :func:`multiprocessing.Pipe`.

A runner owns its pool for its whole lifetime: the first pooled map starts
``workers`` processes, every later map reuses them, and :meth:`shutdown`
(or leaving a ``with`` block) reaps them. Experiment drivers therefore open
one runner per run and hand it to every measurement helper, so a sweep of
hundreds of small maps (the Fig. 13 bisection probes) pays one pool start,
not one per map.

A pooled map pickles its chunk function once and sends ``(payload, start,
count, submit_s)`` straight down idle workers' pipes from the calling
thread, which then waits on the pipes and the worker sentinels with
:func:`multiprocessing.connection.wait` and files each reply by span index.
No manager thread, feeder thread or shared call queue sits between the
caller and the workers, so a two-span map costs two pipe round trips and
little else -- which is what a sweep of tiny maps pays per probe.
Concurrent maps (the server runs its batches on worker threads) check idle
workers out of the pool under one condition variable and hand each back as
soon as it has no more spans to run.

The determinism contract lives one level down: every chunk function in
:mod:`repro.runtime.engine` re-derives trial ``i``'s generator from
``SeedSequence(seed, spawn_key=(i,))`` for ``i`` in ``[start, start +
count)``, so per-trial random streams do not depend on how trials are
grouped or which process executes them. The runner only has to keep the spans contiguous and
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
rather than failing the experiment. A chunk that fails in a worker (an
exception, or the worker's death) is retried once in-process; a worker
death also discards the pool, so the next map starts on fresh workers.

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
import multiprocessing.connection
import os
import pickle
import threading
import time
import traceback
import warnings
from collections import deque
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


def _pool_context(persistent: bool):
    """Start method of a runner's workers: ``fork``, or ``forkserver``.

    Default runners fork, which keeps the workers direct children of the
    caller. A lazily *forked* worker, though, inherits every file
    descriptor open in the parent at fork time. In a serving process that
    includes live client sockets; the parent's later ``close()`` then never
    delivers EOF (the workers still hold the fd), so clients reading to
    end-of-stream hang forever. Persistent (serving) runners therefore
    fork their workers from a clean ``forkserver`` helper instead, so they
    never capture the server's connection fds -- and a pool restart after
    a worker death stays safe mid-traffic too.
    """
    try:
        return multiprocessing.get_context(
            "forkserver" if persistent else "fork"
        )
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context()


def _warm_noop(start: int, count: int, submit_s: Optional[float] = None):
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
    """The formatted traceback of a chunk failure, as the worker saw it.

    A worker formats its exception before replying, because the traceback
    frames do not cross the pipe; the parent puts this text into the
    retry warning and into any :class:`~repro.errors.ChunkExecutionError`.
    """
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


def _failure_reply(exc: BaseException) -> bytes:
    """A worker's pickled ``(False, exception, traceback text)`` reply."""
    text = _failure_traceback(exc)
    try:
        return pickle.dumps((False, exc, text))
    except Exception:  # the exception itself does not pickle
        stand_in = RuntimeError(f"{type(exc).__name__}: {exc}")
        return pickle.dumps((False, stand_in, text))


def _worker_main(conn) -> None:
    """Worker-process loop over one pipe; ``None`` (or EOF) stops it.

    Each task is ``(payload, start, count, submit_s)``: ``payload`` is the
    map's pickled chunk function, called as ``fn(start, count,
    submit_s=submit_s)``. The reply is ``(True, value, None)``, or
    ``(False, exception, traceback text)`` when the chunk raises or its
    value does not pickle.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if task is None:
            return
        payload, start, count, submit_s = task
        try:
            value = pickle.loads(payload)(start, count, submit_s=submit_s)
            reply = pickle.dumps((True, value, None))
        except Exception as exc:
            reply = _failure_reply(exc)
        try:
            conn.send_bytes(reply)
        except OSError:  # the parent is gone
            return


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


class _Worker:
    """One pool process and the parent's end of its duplex pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, ctx) -> None:
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child_end,), daemon=True
        )
        self.process.start()
        # Only the worker may hold its end, so the worker's exit reads as
        # EOF here.
        child_end.close()

    def died(self) -> ChildProcessError:
        """The error a chunk fails with when this worker dies under it."""
        return ChildProcessError(
            f"pool worker {self.process.pid} exited before returning its "
            f"chunk (exit code {self.process.exitcode})"
        )

    def stop(self, join: bool) -> None:
        """Ask the worker to exit, close its pipe, optionally reap it."""
        try:
            self.conn.send(None)
        except OSError:  # already dead
            pass
        self.conn.close()
        if join:
            self.process.join()


class _WorkerPool:
    """``size`` started workers, checked out by maps and checked back in."""

    def __init__(self, size: int, ctx) -> None:
        self._ready = threading.Condition()
        self._idle = [_Worker(ctx) for _ in range(size)]
        self._closed = False

    def checkout(
        self, most: int, block: bool = True
    ) -> Optional[List[_Worker]]:
        """Up to ``most`` idle workers, waiting for one if ``block``.

        ``None`` means the pool is unusable -- closed, or one of its idle
        workers died since its last task -- and the caller should discard
        it.
        """
        with self._ready:
            while block and not self._idle and not self._closed:
                self._ready.wait()
            if self._closed:
                return None
            if not all(worker.process.is_alive() for worker in self._idle):
                return None
            taken, self._idle = self._idle[:most], self._idle[most:]
            return taken

    def checkin(self, workers: List[_Worker]) -> None:
        """Return workers; a closed pool stops and reaps them instead."""
        if not workers:
            return
        with self._ready:
            if not self._closed:
                self._idle.extend(workers)
                self._ready.notify_all()
                return
        for worker in workers:
            worker.stop(join=True)

    def close(self, join: bool) -> None:
        """Stop the idle workers now and the checked-out ones at checkin."""
        with self._ready:
            self._closed = True
            idle, self._idle = self._idle, []
            self._ready.notify_all()
        for worker in idle:
            worker.stop(join)


# One span's outcome: (ok, value or exception, traceback text, round trip s).
_Outcome = Tuple[bool, Any, Optional[str], float]


class TrialRunner:
    """Fans trial chunks across worker processes deterministically.

    The pool lives as long as the runner: it starts lazily at the first
    pooled ``map_*`` call, sized ``workers``, and every later map reuses
    it. A pool whose worker died is discarded so the next call recovers
    on fresh workers. Use the runner as a context manager (or call
    :meth:`shutdown`) so the workers are reaped on exit. Results are
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
        self._pool: Optional[_WorkerPool] = None
        self._lock = threading.Lock()

    # -- pool lifecycle ---------------------------------------------------------

    def _acquire_pool(self) -> _WorkerPool:
        """The runner's pool, started on first use and reused after."""
        with self._lock:
            if self._pool is None:
                self._pool = _WorkerPool(
                    self.workers, _pool_context(self.persistent)
                )
                current_obs().metrics.counter("runner.pool_starts").inc()
            return self._pool

    def _discard_pool(self, pool: _WorkerPool) -> None:
        """Drop a pool whose worker died so the next call starts afresh."""
        with self._lock:
            if pool is not self._pool:
                return
            self._pool = None
        current_obs().metrics.counter("runner.pool_restarts").inc()
        pool.close(join=True)

    def _checkout(self, most: int) -> Tuple[_WorkerPool, List[_Worker]]:
        """A pool and up to ``most`` of its idle workers.

        A pool found unusable is discarded and replaced once; if the
        replacement is unusable too, no workers come back and the map's
        chunks run on the in-process retry path.
        """
        for _ in range(2):
            pool = self._acquire_pool()
            workers = pool.checkout(most)
            if workers is not None:
                return pool, workers
            self._discard_pool(pool)
        return pool, []

    def warm_up(self) -> None:
        """Start every pool worker now instead of at the first ``map_*``.

        A long-lived serving process calls this before accepting traffic
        so the first batch does not pay worker startup (forkserver
        workers cold-import the runtime stack on their first task). It
        returns once every worker has answered one no-op. No-op for
        non-persistent or single-worker runners.
        """
        if not self.persistent or self.workers == 1:
            return
        self._dispatch(
            pickle.dumps(_warm_noop), [(0, 0)] * self.workers, False
        )

    def shutdown(self, wait: bool = True) -> None:
        """Release the pool (idempotent; safe to call repeatedly).

        With ``wait`` the workers are joined, so they are reaped before
        this returns. The runner stays usable: a later ``map_*`` call
        lazily starts a fresh pool.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close(join=wait)

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
        profile = bool(getattr(obs, "profile", False))
        began = time.perf_counter()
        try:
            payload = pickle.dumps(
                partial(_pool_chunk, fn, label, profile=profile)
            )
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
        if profile:
            obs.metrics.histogram(
                "runner.serialize_s", PROFILE_WAIT_EDGES
            ).observe(time.perf_counter() - began)
            obs.metrics.counter("runner.serialized_bytes").inc(len(payload))
        chunk_walls: List[float] = []
        with obs.tracer.span(
            "runner.pool",
            workers=min(self.workers, len(spans)),
            chunks=len(spans),
        ):
            outcomes = self._dispatch(payload, spans, profile)
            results = []
            # Telemetry is merged in span order, never completion order --
            # that is what keeps last-writer gauge merges deterministic
            # under any pool scheduling.
            for (start, count), (ok, value, worker_tb, roundtrip_s) in zip(
                spans, outcomes
            ):
                if not ok:
                    results.append(
                        self._retry_chunk(
                            fn, start, count, obs, label, value, worker_tb
                        )
                    )
                    continue
                result, telemetry = value
                obs.absorb_state(
                    telemetry,
                    extra_attrs={
                        "subprocess": True,
                        "worker": telemetry.get("pid"),
                    },
                )
                if profile:
                    self._profile_result(
                        obs, telemetry, label, result, roundtrip_s, chunk_walls
                    )
                results.append(result)
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

    def _dispatch(
        self, payload: bytes, spans: List[Tuple[int, int]], profile: bool
    ) -> List[_Outcome]:
        """Run ``payload`` over ``spans`` on the pool, one outcome per span.

        Idle workers each take the next span; a worker that replies takes
        the next one, or goes back to the pool once none is left. A worker
        death fails its span and every span not yet sent (they take the
        in-process retry path) and discards the pool once this map has
        returned its workers.
        """
        pool, free = self._checkout(len(spans))
        outcomes: List[Optional[_Outcome]] = [None] * len(spans)
        pending = deque(range(len(spans)))
        busy: Dict[Any, Tuple[_Worker, int, float]] = {}
        dead: List[_Worker] = []
        death: Optional[ChildProcessError] = None

        def lose(worker: _Worker, index: int) -> None:
            nonlocal death
            death = worker.died()
            dead.append(worker)
            outcomes[index] = (False, death, str(death), 0.0)

        try:
            while pending or busy:
                if death is None and len(free) < len(pending):
                    extra = len(pending) - len(free)
                    free.extend(pool.checkout(extra, block=False) or ())
                while death is None and pending and free:
                    worker = free.pop()
                    index = pending.popleft()
                    start, count = spans[index]
                    submit_s = time.perf_counter()
                    stamp = submit_s if profile else None
                    try:
                        worker.conn.send((payload, start, count, stamp))
                    except OSError:
                        lose(worker, index)
                        continue
                    busy[worker.conn] = (worker, index, submit_s)
                if not busy:
                    # Nothing left to wait for: a death stopped dispatch, or
                    # no live worker was available at all.
                    failure = death or ChildProcessError(
                        "no live pool worker to run the chunk"
                    )
                    for index in pending:
                        outcomes[index] = (False, failure, str(failure), 0.0)
                    break
                sentinels = {
                    worker.process.sentinel: conn
                    for conn, (worker, _, _) in busy.items()
                }
                for ready in multiprocessing.connection.wait(
                    [*busy, *sentinels]
                ):
                    conn = sentinels.get(ready, ready)
                    if conn not in busy:  # its pipe and sentinel both fired
                        continue
                    worker, index, submit_s = busy.pop(conn)
                    try:
                        if ready is not conn and not conn.poll():
                            raise EOFError  # exited, pipe held elsewhere
                        ok, value, worker_tb = conn.recv()
                    except (EOFError, OSError):
                        lose(worker, index)
                        continue
                    except Exception as exc:  # the reply did not unpickle
                        ok, value = False, exc
                        worker_tb = _failure_traceback(exc)
                    outcomes[index] = (
                        ok, value, worker_tb, time.perf_counter() - submit_s
                    )
                    if death is None and pending:
                        free.append(worker)
                    else:
                        pool.checkin([worker])
        finally:
            # Workers abandoned mid-task (the map was interrupted) would
            # answer into the next map's pipe: never reuse them.
            for worker, _, _ in busy.values():
                worker.process.terminate()
                dead.append(worker)
            pool.checkin(free + dead)
            if dead:
                self._discard_pool(pool)
        return outcomes

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
        clock: argument/result pickling, pipe transfer and wake-ups --
        the pool's pure orchestration overhead for that chunk.  Result
        serialization is re-measured here (one extra pickle per chunk);
        that cost only exists under ``--profile``.
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
        worker_tb: str,
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
