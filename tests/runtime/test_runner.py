"""Unit tests for the deterministic trial-chunk runner."""

import multiprocessing

import numpy as np
import pytest

from repro.runtime.runner import TrialRunner


def span_indices(start: int, count: int) -> np.ndarray:
    """Module-level (hence picklable) chunk function for pool tests."""
    return np.arange(start, start + count)


class TestSpans:
    def test_one_chunk_per_worker_by_default(self):
        assert TrialRunner(workers=3).spans(9) == [(0, 3), (3, 3), (6, 3)]

    def test_uneven_split_keeps_cover_exact(self):
        spans = TrialRunner(workers=4).spans(10)
        assert spans == [(0, 3), (3, 3), (6, 3), (9, 1)]
        assert sum(count for _, count in spans) == 10

    def test_explicit_chunk_size(self):
        assert TrialRunner(chunk_size=4).spans(10) == [(0, 4), (4, 4), (8, 2)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            TrialRunner(workers=0)
        with pytest.raises(ValueError):
            TrialRunner(chunk_size=0)
        with pytest.raises(ValueError):
            TrialRunner().spans(0)


class TestRangeSpans:
    def test_suffix_partition_matches_full_partition(self):
        runner = TrialRunner(chunk_size=4)
        assert runner.range_spans(4, 10) == [(4, 4), (8, 2)]
        assert runner.range_spans(0, 4) + runner.range_spans(4, 10) == (
            runner.spans(10)
        )

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            TrialRunner().range_spans(-1, 4)
        with pytest.raises(ValueError):
            TrialRunner().range_spans(4, 4)


class TestMapChunks:
    def test_fewer_trials_than_workers(self):
        # Degenerate chunking: every trial becomes its own single-trial
        # span and the pool simply runs fewer workers than configured.
        runner = TrialRunner(workers=8)
        assert runner.spans(3) == [(0, 1), (1, 1), (2, 1)]
        parts = runner.map_chunks(span_indices, 3)
        assert np.concatenate(parts).tolist() == [0, 1, 2]

    def test_single_trial_many_workers(self):
        parts = TrialRunner(workers=4).map_chunks(span_indices, 1)
        assert np.concatenate(parts).tolist() == [0]

    def test_batched_ranges_cover_single_map(self):
        runner = TrialRunner(chunk_size=3)
        batched = runner.map_range(span_indices, 0, 5) + runner.map_range(
            span_indices, 5, 12
        )
        single = runner.map_chunks(span_indices, 12)
        assert np.concatenate(batched).tolist() == np.concatenate(
            single
        ).tolist()

    def test_in_process_covers_all_trials(self):
        parts = TrialRunner(chunk_size=3).map_chunks(span_indices, 10)
        assert np.concatenate(parts).tolist() == list(range(10))

    def test_pool_matches_in_process(self):
        serial = TrialRunner(workers=1).map_chunks(span_indices, 12)
        pooled = TrialRunner(workers=3).map_chunks(span_indices, 12)
        assert np.concatenate(pooled).tolist() == np.concatenate(
            serial
        ).tolist()

    def test_lambda_falls_back_in_process_with_warning(self):
        runner = TrialRunner(workers=2)
        with pytest.warns(RuntimeWarning, match="not picklable"):
            parts = runner.map_chunks(
                lambda start, count: list(range(start, start + count)), 6
            )
        assert [v for part in parts for v in part] == list(range(6))


def fail_in_worker_chunk(start: int, count: int):
    """Fails only in pool workers (parent pid recorded via environ)."""
    import os

    if os.getpid() != int(os.environ.get("TEST_RUNNER_PARENT_PID", "-1")):
        raise ValueError(f"worker boom at {start}")
    return list(range(start, start + count))


def always_fail_chunk(start: int, count: int):
    raise ValueError(f"boom at {start}")


def fail_once_chunk(start: int, count: int):
    """Fails only for the first chunk, and only inside a pool worker."""
    import os

    if start == 0 and os.getpid() != int(
        os.environ.get("TEST_RUNNER_PARENT_PID", "-1")
    ):
        raise ValueError("one-shot boom")
    return list(range(start, start + count))


@pytest.fixture
def parent_pid_env(monkeypatch):
    import os

    monkeypatch.setenv("TEST_RUNNER_PARENT_PID", str(os.getpid()))


class TestWorkerFailureRecovery:
    def test_failed_chunk_retries_in_process(self, parent_pid_env):
        from repro.obs.context import obs_context

        runner = TrialRunner(workers=2, chunk_size=4)
        with obs_context() as obs:
            with pytest.warns(
                RuntimeWarning, match="retrying once in-process"
            ):
                parts = runner.map_chunks(fail_in_worker_chunk, 8)
        assert [v for part in parts for v in part] == list(range(8))
        assert obs.metrics.counters()["runner.chunk_retries"] == 2

    def test_one_shot_failure_counts_single_retry(self, parent_pid_env):
        from repro.obs.context import obs_context

        runner = TrialRunner(workers=2, chunk_size=4)
        with obs_context() as obs:
            with pytest.warns(
                RuntimeWarning, match="retrying once in-process"
            ):
                parts = runner.map_chunks(fail_once_chunk, 8)
        # The healthy chunk is untouched; exactly one retry is recorded.
        assert [v for part in parts for v in part] == list(range(8))
        assert obs.metrics.counters()["runner.chunk_retries"] == 1

    def test_warning_surfaces_worker_traceback(self, parent_pid_env):
        runner = TrialRunner(workers=2, chunk_size=8)
        with pytest.warns(RuntimeWarning, match="worker boom at 0"):
            runner.map_chunks(fail_in_worker_chunk, 16)

    def test_double_failure_raises_with_context(self):
        from repro.errors import ChunkExecutionError

        runner = TrialRunner(workers=2, chunk_size=4)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ChunkExecutionError) as info:
                runner.map_chunks(always_fail_chunk, 8)
        assert info.value.start == 0
        assert info.value.count == 4
        assert "boom at 0" in info.value.worker_traceback
        assert isinstance(info.value.__cause__, ValueError)

    def test_in_process_failures_propagate_unwrapped(self):
        # The retry path is pool-only: workers=1 raises the original error.
        runner = TrialRunner(workers=1, chunk_size=4)
        with pytest.raises(ValueError, match="boom at 0"):
            runner.map_chunks(always_fail_chunk, 8)


def worker_pid_chunk(start: int, count: int):
    """Report which process ran the chunk (for pool-reuse assertions)."""
    import os

    return [os.getpid()]


def exit_in_worker_chunk(start: int, count: int):
    """Kill the worker process outright (simulated OOM/segv death)."""
    import os

    if os.getpid() != int(os.environ.get("TEST_RUNNER_PARENT_PID", "-1")):
        os._exit(3)
    return list(range(start, start + count))


class TestDefaultPool:
    """A default (fork) runner keeps one pool for its whole lifetime."""

    def test_pool_is_reused_across_maps(self):
        from repro.obs.context import obs_context

        with obs_context() as obs:
            with TrialRunner(workers=2) as runner:
                first = runner.map_chunks(worker_pid_chunk, 2)
                second = runner.map_chunks(worker_pid_chunk, 4)
                children = {p.pid for p in multiprocessing.active_children()}
            counters = obs.metrics.counters()
        pids = set(np.concatenate(first)) | set(np.concatenate(second))
        # Every chunk of both maps ran on the same live pool of two
        # workers, which are direct children of this process.
        assert len(pids) <= 2
        assert pids <= children
        assert counters["runner.pool_starts"] == 1

    def test_exit_reaps_the_workers(self):
        with TrialRunner(workers=2) as runner:
            pids = set(np.concatenate(runner.map_chunks(worker_pid_chunk, 2)))
        alive = {p.pid for p in multiprocessing.active_children()}
        assert pids and not pids & alive

    def test_results_recover_after_worker_death(self, parent_pid_env):
        from repro.obs.context import obs_context

        with obs_context() as obs:
            with TrialRunner(workers=2, chunk_size=4) as runner:
                with pytest.warns(
                    RuntimeWarning, match="retrying once in-process"
                ):
                    parts = runner.map_chunks(exit_in_worker_chunk, 8)
                healthy = runner.map_chunks(span_indices, 8)
            counters = obs.metrics.counters()
        assert [v for part in parts for v in part] == list(range(8))
        assert np.concatenate(healthy).tolist() == list(range(8))
        assert counters["runner.pool_restarts"] == 1
        assert counters["runner.pool_starts"] == 2


class TestPersistentPool:
    """Serve-mode (forkserver) pool: reuse, idempotent shutdown, recovery."""

    def test_pool_is_reused_across_maps(self):
        from repro.obs.context import obs_context

        with obs_context() as obs:
            with TrialRunner(workers=2, persistent=True) as runner:
                first = runner.map_chunks(worker_pid_chunk, 2)
                second = runner.map_chunks(worker_pid_chunk, 2)
            counters = obs.metrics.counters()
        # The second map ran on the same (still-warm) worker processes.
        assert set(np.concatenate(second)) <= set(np.concatenate(first))
        assert counters["runner.pool_starts"] == 1

    def test_shutdown_is_idempotent(self):
        runner = TrialRunner(workers=2, persistent=True)
        runner.map_chunks(span_indices, 4)
        runner.shutdown()
        runner.shutdown()  # second call is a no-op, not an error

    def test_map_after_shutdown_restarts_lazily(self):
        with TrialRunner(workers=2, persistent=True) as runner:
            runner.map_chunks(span_indices, 4)
            runner.shutdown()
            parts = runner.map_chunks(span_indices, 4)
        assert np.concatenate(parts).tolist() == list(range(4))

    def test_results_recover_after_worker_death(self, parent_pid_env):
        from repro.obs.context import obs_context

        with obs_context() as obs:
            with TrialRunner(workers=2, chunk_size=4, persistent=True) as runner:
                with pytest.warns(
                    RuntimeWarning, match="retrying once in-process"
                ):
                    parts = runner.map_chunks(exit_in_worker_chunk, 8)
                # The broken pool was discarded; the next map runs on a
                # fresh pool and completes without retries.
                healthy = runner.map_chunks(span_indices, 8)
            counters = obs.metrics.counters()
        assert [v for part in parts for v in part] == list(range(8))
        assert np.concatenate(healthy).tolist() == list(range(8))
        assert counters["runner.pool_restarts"] == 1
        assert counters["runner.pool_starts"] == 2


def seeded_draws(seed: int, start: int, count: int) -> np.ndarray:
    """Per-trial generator draws, as the engine's chunk functions make them."""
    return np.concatenate(
        [
            np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(i,))
            ).standard_normal(3)
            for i in range(start, start + count)
        ]
    )


class CountingChunk:
    """Picklable chunk function that counts, in this process, its picklings."""

    pickled = 0

    def __reduce__(self):
        CountingChunk.pickled += 1
        return (CountingChunk, ())

    def __call__(self, start: int, count: int):
        return list(range(start, start + count))


class TestDirectPipes:
    """The pool's own dispatch: one pickle per map, shared, self-healing."""

    def test_map_pickles_its_chunk_function_once(self):
        CountingChunk.pickled = 0
        with TrialRunner(workers=2, chunk_size=1) as runner:
            parts = runner.map_chunks(CountingChunk(), 8)
        assert [v for part in parts for v in part] == list(range(8))
        assert CountingChunk.pickled == 1

    @pytest.mark.parametrize("persistent", [False, True])
    def test_concurrent_maps_match_in_process(self, persistent):
        import sys
        import threading
        from functools import partial

        jobs = [(seed, n) for seed, n in zip(range(4), (9, 12, 7, 16))]
        serial = TrialRunner(workers=1)
        expected = [
            np.concatenate(
                serial.map_chunks(partial(seeded_draws, seed), n)
            ).tobytes()
            for seed, n in jobs
        ]
        results = [None] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        # Four mapping threads over three workers: a worker handed to two
        # maps at once would cross their replies.
        switch = sys.getswitchinterval()
        with TrialRunner(
            workers=3, chunk_size=2, persistent=persistent
        ) as runner:
            # Start the workers before any thread exists, as a server does.
            runner.map_chunks(span_indices, 6)

            def job(k):
                seed, n = jobs[k]
                barrier.wait(30)
                results[k] = [
                    np.concatenate(
                        runner.map_chunks(partial(seeded_draws, seed), n)
                    ).tobytes()
                    for _ in range(3)
                ]

            threads = [
                threading.Thread(target=job, args=(k,))
                for k in range(len(jobs))
            ]
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
            finally:
                sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[want] * 3 for want in expected]

    @pytest.mark.parametrize("persistent", [False, True])
    def test_worker_killed_between_maps_is_replaced(self, persistent):
        import os
        import signal
        from functools import partial

        from repro.obs.context import obs_context

        fn = partial(seeded_draws, 5)
        expected = np.concatenate(TrialRunner().map_chunks(fn, 8)).tobytes()
        with obs_context() as obs:
            with TrialRunner(workers=2, persistent=persistent) as runner:
                victim = int(runner.map_chunks(worker_pid_chunk, 2)[0][0])
                os.kill(victim, signal.SIGKILL)
                for child in multiprocessing.active_children():
                    if child.pid == victim:
                        child.join(10)
                parts = runner.map_chunks(fn, 8)
                again = runner.map_chunks(fn, 8)
            counters = obs.metrics.counters()
        assert np.concatenate(parts).tobytes() == expected
        assert np.concatenate(again).tobytes() == expected
        # The dead worker was noticed before any chunk was sent to it.
        assert counters["runner.pool_restarts"] == 1
        assert counters["runner.pool_starts"] == 2
        assert "runner.chunk_retries" not in counters


def unpicklable_result_chunk(start: int, count: int):
    """A chunk whose value cannot cross back from a worker."""
    return [lambda: start]


def test_unpicklable_result_retries_and_keeps_the_pool():
    from repro.obs.context import obs_context

    with obs_context() as obs:
        with TrialRunner(workers=2, chunk_size=2) as runner:
            with pytest.warns(RuntimeWarning, match="retrying once"):
                parts = runner.map_chunks(unpicklable_result_chunk, 4)
            healthy = runner.map_chunks(span_indices, 4)
        counters = obs.metrics.counters()
    assert [part[0]() for part in parts] == [0, 2]
    assert np.concatenate(healthy).tolist() == list(range(4))
    assert counters["runner.chunk_retries"] == 2
    assert counters["runner.pool_starts"] == 1
    assert "runner.pool_restarts" not in counters
