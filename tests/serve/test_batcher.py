"""Micro-batcher and stacked-scorer tests, including the determinism
contract: a request's plan is bit-identical no matter how it was
co-batched or how many workers served it.

No pytest-asyncio in the toolchain: every async scenario runs under its
own ``asyncio.run``.
"""

import asyncio
import threading

import pytest

from repro.core.optimizer import evaluate_stacked_specs
from repro.obs.context import obs_context
from repro.runtime.cache import result_to_json
from repro.serve.batcher import MicroBatcher, StackedScorer
from repro.serve.service import (
    PlanService,
    ServeConfig,
    ServeRequestError,
    parse_request,
)

_BASE = {
    "kind": "peak",
    "n_antennas": 4,
    "n_draws": 8,
    "grid_size": 2048,
    "n_candidates": 8,
    "refine_rounds": 1,
    "refine_steps": [1, 2],
}


def _request(seed: int, **overrides):
    return parse_request({**_BASE, "seed": seed, **overrides})


async def _serve(requests, config=None, waves=None):
    """Serve requests on a fresh service; ``waves`` splits submissions
    into sequential bursts (distinct co-batching schedules)."""
    service = PlanService(config or ServeConfig(flush_window_s=0.005))
    try:
        if waves is None:
            return await asyncio.gather(
                *(service.submit(request) for request in requests)
            )
        responses = []
        for wave in waves:
            responses.extend(
                await asyncio.gather(
                    *(service.submit(requests[i]) for i in wave)
                )
            )
        return responses
    finally:
        await service.close()


class TestMicroBatcher:
    def test_same_tick_submits_coalesce_into_one_batch(self):
        async def scenario():
            batcher = MicroBatcher(lambda items: [i * 2 for i in items])
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(5))
            )
            return results, batcher

        results, batcher = asyncio.run(scenario())
        assert results == [0, 2, 4, 6, 8]
        assert batcher.batches == 1 and batcher.max_batch_seen == 5

    def test_zero_window_still_coalesces_within_a_tick(self):
        async def scenario():
            batcher = MicroBatcher(
                lambda items: list(items), flush_window_s=0
            )
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(4))
            )
            return results, batcher.batches

        results, batches = asyncio.run(scenario())
        assert results == [0, 1, 2, 3]
        assert batches == 1

    def test_max_batch_flushes_immediately(self):
        async def scenario():
            batcher = MicroBatcher(
                lambda items: list(items),
                flush_window_s=60.0,  # never reached: size triggers
                max_batch=2,
            )
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(4))
            )
            await batcher.drain()
            return results, batcher.batches

        results, batches = asyncio.run(scenario())
        assert results == [0, 1, 2, 3]
        assert batches == 2

    def test_sequential_submits_make_separate_batches(self):
        async def scenario():
            batcher = MicroBatcher(
                lambda items: list(items), flush_window_s=0.001
            )
            first = await batcher.submit("a")
            second = await batcher.submit("b")
            return (first, second), batcher.batches

        results, batches = asyncio.run(scenario())
        assert results == ("a", "b")
        assert batches == 2

    def test_exception_result_rejects_only_its_item(self):
        def execute(items):
            return [
                ValueError("poisoned") if item == 1 else item
                for item in items
            ]

        async def scenario():
            batcher = MicroBatcher(execute)
            return await asyncio.gather(
                *(batcher.submit(i) for i in range(3)),
                return_exceptions=True,
            )

        results = asyncio.run(scenario())
        assert results[0] == 0 and results[2] == 2
        assert isinstance(results[1], ValueError)

    def test_executor_crash_rejects_whole_batch(self):
        def execute(items):
            raise RuntimeError("executor down")

        async def scenario():
            batcher = MicroBatcher(execute)
            return await asyncio.gather(
                *(batcher.submit(i) for i in range(2)),
                return_exceptions=True,
            )

        results = asyncio.run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_wrong_result_count_is_an_error(self):
        async def scenario():
            batcher = MicroBatcher(lambda items: [1])
            return await asyncio.gather(
                batcher.submit("a"),
                batcher.submit("b"),
                return_exceptions=True,
            )

        results = asyncio.run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="flush_window_s"):
            MicroBatcher(lambda items: items, flush_window_s=-1)
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(lambda items: items, max_batch=0)


class TestStackedScorer:
    def test_merges_concurrent_rounds(self):
        rounds = []

        def evaluate(specs):
            rounds.append(len(specs))
            return [f"r{spec}" for spec in specs]

        scorer = StackedScorer(evaluate)
        pids = [scorer.register() for _ in range(3)]
        outputs = {}

        def participant(pid):
            outputs[pid] = scorer.score(pid, f"spec-{pid}")
            scorer.finish(pid)

        threads = [
            threading.Thread(target=participant, args=(pid,))
            for pid in pids
        ]
        for thread in threads:
            thread.start()
        scorer.run()
        for thread in threads:
            thread.join()
        assert outputs == {pid: f"rspec-{pid}" for pid in pids}
        assert rounds == [3]  # one stacked call, not three

    def test_uneven_round_counts_drain_cleanly(self):
        def evaluate(specs):
            return [spec * 10 for spec in specs]

        scorer = StackedScorer(evaluate)
        pids = [scorer.register() for _ in range(2)]
        calls = {pids[0]: 3, pids[1]: 1}
        outputs = {pid: [] for pid in pids}

        def participant(pid):
            for round_index in range(calls[pid]):
                outputs[pid].append(scorer.score(pid, round_index + 1))
            scorer.finish(pid)

        threads = [
            threading.Thread(target=participant, args=(pid,))
            for pid in pids
        ]
        for thread in threads:
            thread.start()
        scorer.run()
        for thread in threads:
            thread.join()
        assert outputs[pids[0]] == [10, 20, 30]
        assert outputs[pids[1]] == [10]

    def test_evaluate_failure_wakes_every_waiter(self):
        def evaluate(specs):
            raise ValueError("kernel exploded")

        scorer = StackedScorer(evaluate)
        pids = [scorer.register() for _ in range(2)]
        errors = []

        def participant(pid):
            try:
                scorer.score(pid, "spec")
            except RuntimeError as exc:
                errors.append(exc)
            finally:
                scorer.finish(pid)

        threads = [
            threading.Thread(target=participant, args=(pid,))
            for pid in pids
        ]
        for thread in threads:
            thread.start()
        with pytest.raises(ValueError, match="kernel exploded"):
            scorer.run()
        for thread in threads:
            thread.join()
        assert len(errors) == 2


class TestCoBatchingDeterminism:
    """Bit-identical plans under every co-batching schedule."""

    def test_co_batched_matches_solo(self):
        requests = [_request(seed) for seed in range(4)]
        solo = [
            asyncio.run(_serve([request]))[0] for request in requests
        ]
        together = asyncio.run(_serve(requests))
        for alone, batched in zip(solo, together):
            assert batched["result"] == alone["result"]

    def test_schedule_independence(self):
        requests = [_request(seed) for seed in range(4)]
        all_at_once = asyncio.run(_serve(requests))
        waves = asyncio.run(
            _serve(requests, waves=[[2, 0], [3, 1]])
        )
        by_key = {r["key"]: r["result"] for r in all_at_once}
        for response in waves:
            assert response["result"] == by_key[response["key"]]

    def test_worker_count_independence(self):
        requests = [_request(seed) for seed in range(3)]
        single = asyncio.run(_serve(requests))
        pooled = asyncio.run(
            _serve(requests, ServeConfig(workers=2, flush_window_s=0.005))
        )
        for a, b in zip(single, pooled):
            assert a["result"] == b["result"]

    def test_three_distinct_requests_batched_match_solo(self):
        requests = [_request(seed) for seed in range(3)]
        solo = [
            asyncio.run(_serve([request]))[0] for request in requests
        ]
        with obs_context() as obs:
            together = asyncio.run(_serve(requests))
        counters = obs.metrics.counters()
        # One batch whose three searches were scored at the shared barrier.
        assert counters["serve.batches"] == 1
        assert counters["serve.stacked_specs"] > counters["serve.stacked_rounds"]
        for alone, batched in zip(solo, together):
            assert batched["result"] == alone["result"]

    def test_mixed_kinds_co_batch_bit_identically(self):
        requests = [
            _request(0),
            parse_request(
                {**_BASE, "kind": "conduction", "threshold": 0.5, "seed": 1}
            ),
        ]
        solo = [
            asyncio.run(_serve([request]))[0] for request in requests
        ]
        together = asyncio.run(_serve(requests))
        for alone, batched in zip(solo, together):
            assert batched["result"] == alone["result"]

    def test_same_key_requests_collapse_to_one_search(self):
        requests = [
            _request(0, medium="muscle", depth_m=0.05),
            _request(0, medium="muscle", depth_m=0.1),
            _request(0),
        ]

        async def scenario():
            service = PlanService(ServeConfig(flush_window_s=0.005))
            try:
                responses = await asyncio.gather(
                    *(service.submit(request) for request in requests)
                )
                return responses, service.batcher.items
            finally:
                await service.close()

        responses, batched_items = asyncio.run(scenario())
        # One key -> one batcher item; the rest coalesced or hit memory.
        assert batched_items == 1
        results = {
            response["result"]["expected_peak"] for response in responses
        }
        assert len(results) == 1
        assert responses[0]["power"] != responses[1]["power"]


class TestRefineStepBound:
    def test_steps_up_to_the_nyquist_bin_parse(self):
        request = parse_request(
            {"n_antennas": 4, "grid_size": 64, "refine_steps": [1, 32]}
        )
        assert request.refine_steps == (1, 32)
        # Omitted steps keep their defaults even where the grid is small.
        assert parse_request({"n_antennas": 4, "grid_size": 16}).refine_steps

    @pytest.mark.parametrize("step", [33, 2**70])
    def test_longer_steps_are_client_errors(self, step):
        with pytest.raises(ServeRequestError, match="at most grid_size"):
            parse_request(
                {"n_antennas": 4, "grid_size": 64, "refine_steps": [1, step]}
            )
