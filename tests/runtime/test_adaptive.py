"""Unit tests for the streaming adaptive trial allocator."""

import math

import numpy as np
import pytest

from repro.analysis.mc import spawn_rngs
from repro.obs.context import obs_context
from repro.runtime.adaptive import (
    STOP_CI_MET,
    STOP_MAX_TRIALS,
    AdaptiveConfig,
    AdaptiveOutcome,
    MeanTracker,
    ProportionTracker,
    adaptive_map_chunks,
    worst_interval,
)
from repro.runtime.runner import TrialRunner


def normal_chunk(start: int, count: int, seed: int = 0, n_trials: int = 0):
    """Deterministic per-trial normal draws keyed by absolute index."""
    rngs = spawn_rngs(seed, n_trials)[start : start + count]
    return np.array([rng.normal(10.0, 1.0) for rng in rngs])


class TestAdaptiveConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(min_trials=0)
        with pytest.raises(ValueError):
            AdaptiveConfig(batch_trials=0)
        with pytest.raises(ValueError):
            AdaptiveConfig(max_trials=0)
        with pytest.raises(ValueError):
            AdaptiveConfig(ci_target=0.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(ci_relative=-0.1)
        with pytest.raises(ValueError):
            AdaptiveConfig(confidence_z=0.0)
        # NaN and infinity slip past plain range checks; trial counts
        # must also be whole numbers.
        for field, value in (
            ("ci_target", math.nan),
            ("ci_target", math.inf),
            ("ci_relative", math.nan),
            ("confidence_z", math.nan),
            ("confidence_z", math.inf),
            ("min_trials", math.inf),
            ("min_trials", 2.5),
            ("batch_trials", math.nan),
            ("max_trials", math.inf),
            ("max_trials", 40.5),
        ):
            with pytest.raises(ValueError, match=field):
                AdaptiveConfig(**{field: value})

    def test_budget_prefers_max_trials(self):
        assert AdaptiveConfig().budget(40) == 40
        assert AdaptiveConfig(max_trials=100).budget(40) == 100
        with pytest.raises(ValueError):
            AdaptiveConfig().budget(0)

    def test_stop_rule_takes_the_looser_target(self):
        config = AdaptiveConfig(ci_target=0.5, ci_relative=0.1)
        # |estimate| = 10 -> relative target 1.0 is looser than 0.5.
        assert config.met(10.0, 0.9)
        assert not config.met(10.0, 1.1)
        # |estimate| = 1 -> absolute target 0.5 is the looser one.
        assert config.met(1.0, 0.4)
        assert not config.met(1.0, 0.6)

    def test_untargeted_never_met(self):
        config = AdaptiveConfig()
        assert config.target_for(5.0) is None
        assert not config.met(5.0, 0.0)

    def test_infinite_width_never_met(self):
        config = AdaptiveConfig(ci_target=1.0)
        assert not config.met(float("nan"), float("inf"))

    def test_cache_token_distinguishes_policies(self):
        a = AdaptiveConfig(ci_target=0.1)
        b = AdaptiveConfig(ci_target=0.2)
        assert a.cache_token() == AdaptiveConfig(ci_target=0.1).cache_token()
        assert a.cache_token() != b.cache_token()
        assert len(a.cache_token()) == 16


class TestTrackers:
    def test_mean_tracker_interval(self):
        tracker = MeanTracker()
        estimate, half_width = tracker.interval()
        assert math.isnan(estimate) and math.isinf(half_width)
        tracker.add([1.0, 2.0, 3.0])
        estimate, half_width = tracker.interval()
        assert estimate == pytest.approx(2.0)
        assert half_width == pytest.approx(1.96 * 1.0 / math.sqrt(3))

    def test_proportion_tracker_interval(self):
        tracker = ProportionTracker()
        assert math.isinf(tracker.interval()[1])
        tracker.add(3, 10)
        tracker.add(2, 10)
        estimate, half_width = tracker.interval()
        assert estimate == pytest.approx(0.25)
        assert 0.0 < half_width < 0.25

    def test_proportion_tracker_rejects_bad_batches(self):
        with pytest.raises(ValueError):
            ProportionTracker().add(5, 4)
        with pytest.raises(ValueError):
            ProportionTracker().add(-1, 4)

    def test_worst_interval_picks_largest_slack(self):
        config = AdaptiveConfig(ci_target=0.1)
        tight = (0.5, 0.01)
        loose = (0.5, 0.3)
        assert worst_interval([tight, loose], config) == loose
        assert worst_interval([(0.5, float("inf")), loose], config)[1] == (
            float("inf")
        )
        with pytest.raises(ValueError):
            worst_interval([], config)


class TestAdaptiveMapChunks:
    def _run(self, config, n_trials=96, workers=1, chunk_size=None):
        runner = TrialRunner(workers=workers, chunk_size=chunk_size)
        tracker = MeanTracker(config.confidence_z)
        from functools import partial

        fn = partial(
            normal_chunk, seed=5, n_trials=config.budget(n_trials)
        )

        def absorb(part, count):
            tracker.add(part)
            return tracker.interval()

        return adaptive_map_chunks(
            runner, fn, n_trials, config, absorb, point="unit"
        )

    def test_no_target_runs_full_budget(self):
        parts, outcome = self._run(AdaptiveConfig(min_trials=32))
        assert outcome.trials == outcome.budget == 96
        assert outcome.stop == STOP_MAX_TRIALS
        assert outcome.trials_saved == 0
        total = sum(len(p) for p in parts)
        assert total == 96

    def test_loose_target_stops_at_min_trials(self):
        parts, outcome = self._run(
            AdaptiveConfig(ci_target=5.0, min_trials=8, batch_trials=16)
        )
        assert outcome.trials == 8
        assert outcome.stop == STOP_CI_MET
        assert outcome.trials_saved == 88
        assert outcome.estimate == pytest.approx(10.0, abs=2.0)

    def test_batch_schedule_is_min_then_batches(self):
        parts, outcome = self._run(
            AdaptiveConfig(ci_target=1e-9, min_trials=10, batch_trials=20)
        )
        # 10, then 20-trial batches until the 96 budget: 10+4*20+6.
        assert outcome.stop == STOP_MAX_TRIALS
        assert outcome.batches == 6

    def test_prefix_is_bitwise_identical_for_any_batching(self):
        fixed = TrialRunner().map_chunks(
            lambda s, c: normal_chunk(s, c, seed=5, n_trials=96), 96
        )
        reference = np.concatenate(fixed)
        for kwargs in (
            {"workers": 1},
            {"workers": 3},
            {"workers": 2, "chunk_size": 7},
        ):
            parts, outcome = self._run(
                AdaptiveConfig(ci_target=0.3, min_trials=16, batch_trials=16),
                **kwargs,
            )
            streamed = np.concatenate(parts)
            assert outcome.trials == streamed.size
            np.testing.assert_array_equal(
                streamed, reference[: streamed.size]
            )

    def test_stop_decision_is_worker_independent(self):
        outcomes = [
            self._run(
                AdaptiveConfig(ci_target=0.3, min_trials=16, batch_trials=16),
                workers=workers,
            )[1]
            for workers in (1, 2, 4)
        ]
        assert len({o.trials for o in outcomes}) == 1
        assert len({o.stop for o in outcomes}) == 1
        # Partitioning changes the merge order of the moments, so the
        # estimate is only equal up to floating-point roundoff.
        for outcome in outcomes[1:]:
            assert outcome.estimate == pytest.approx(
                outcomes[0].estimate, rel=1e-12
            )

    def test_emits_spans_and_counters(self):
        with obs_context() as obs:
            _, outcome = self._run(
                AdaptiveConfig(ci_target=5.0, min_trials=8)
            )
            counters = obs.metrics.counters()
            spans = [
                s for s in obs.tracer.spans if s.name == "adaptive.point"
            ]
        assert counters["adaptive.points"] == 1
        assert counters["adaptive.trials_run"] == outcome.trials
        assert counters["adaptive.trials_saved"] == outcome.trials_saved
        assert counters["adaptive.batches"] == outcome.batches
        assert counters[f"adaptive.stop.{outcome.stop}"] == 1
        assert len(spans) == 1
        assert spans[0].attrs["trials"] == outcome.trials
        assert spans[0].attrs["stop"] == outcome.stop

    def test_outcome_record(self):
        outcome = AdaptiveOutcome(
            point="p", budget=100, trials=40, batches=3, stop=STOP_CI_MET,
            estimate=1.0, half_width=0.1,
        )
        assert outcome.trials_saved == 60
