"""Unit tests for the metrics registry: bucketing, round-trips, merging."""

import numpy as np
import pytest

from repro.obs.metrics import Histogram, MetricsRegistry


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("trials").inc()
        registry.counter("trials").inc(4)
        assert registry.counter("trials").value == 5

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("tier").set("fft")
        registry.gauge("tier").set("direct")
        assert registry.gauge("tier").value == "direct"


class TestHistogramBucketing:
    def test_bucket_boundaries(self):
        # Bucket i holds edges[i-1] <= v < edges[i]; edges are inclusive
        # on the left.
        histogram = Histogram(edges=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 3.0, 10.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1, 1]
        assert histogram.count == 4
        assert histogram.total == 14.5
        assert histogram.minimum == 0.5
        assert histogram.maximum == 10.0

    def test_observe_many_matches_scalar_loop(self):
        # Bit for bit: bucket counts, the running total and the extremes,
        # over several batches (one an iterator) with values on the edges.
        rng = np.random.default_rng(7)
        edges = (0.001, 0.1, 1.0, 2.0, 5.0, 50.0)
        batched = Histogram(edges=edges)
        looped = Histogram(edges=edges)
        for size in (1, 9, 40, 500):
            values = rng.lognormal(0.0, 2.0, size=size)
            values[: size // 3] = rng.choice(edges, size=size // 3)
            batched.observe_many(iter(values) if size == 9 else values)
            for value in values:
                looped.observe(value)
            assert batched.counts == looped.counts
            assert batched.count == looped.count
            assert batched.total == looped.total
            assert batched.minimum == looped.minimum
            assert batched.maximum == looped.maximum

    def test_empty_batch_is_a_no_op(self):
        histogram = Histogram(edges=(1.0,))
        histogram.observe_many(np.empty(0))
        assert histogram.count == 0
        assert histogram.minimum is None

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(edges=(2.0, 1.0))

    def test_registry_rejects_conflicting_edges(self):
        registry = MetricsRegistry()
        registry.histogram("h", edges=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", edges=(1.0, 3.0))
        # Matching or omitted edges return the same histogram.
        assert registry.histogram("h") is registry.histogram("h", edges=(1.0, 2.0))

    def test_histogram_needs_edges_on_first_access(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h")


class TestSerializationAndMerge:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("trials").inc(10)
        registry.gauge("workers").set(2)
        registry.histogram("wall", edges=(0.1, 1.0)).observe_many(
            [0.05, 0.5, 2.0]
        )
        return registry

    def test_dict_round_trip(self):
        registry = self._populated()
        clone = MetricsRegistry.from_dict(registry.to_dict())
        assert clone.to_dict() == registry.to_dict()

    def test_merge_accumulates_counters_and_histograms(self):
        parent = self._populated()
        worker = self._populated()
        parent.merge(worker)
        assert parent.counter("trials").value == 20
        merged = parent.histogram("wall")
        assert merged.count == 6
        assert merged.counts == [2, 2, 2]
        assert merged.minimum == 0.05
        assert merged.maximum == 2.0

    def test_merge_dict_is_the_wire_path(self):
        parent = MetricsRegistry()
        parent.merge_dict(self._populated().to_dict())
        assert parent.counter("trials").value == 10
        assert parent.gauge("workers").value == 2

    def test_numeric_gauge_merge_takes_max_in_any_order(self):
        # Numeric gauges (peak RSS, chunk skew) merge commutatively:
        # whichever side absorbs the other, the peak survives.
        low, high = MetricsRegistry(), MetricsRegistry()
        low.gauge("peak").set(3.0)
        high.gauge("peak").set(7.0)
        forward = MetricsRegistry.from_dict(low.to_dict())
        forward.merge(high)
        backward = MetricsRegistry.from_dict(high.to_dict())
        backward.merge(low)
        assert forward.gauge("peak").value == 7.0
        assert backward.gauge("peak").value == 7.0

    def test_non_numeric_gauge_merge_is_last_writer(self):
        parent = MetricsRegistry()
        parent.gauge("tier").set("direct")
        worker = MetricsRegistry()
        worker.gauge("tier").set("fft")
        parent.merge(worker)
        assert parent.gauge("tier").value == "fft"

    def test_unset_gauge_never_clobbers_a_value(self):
        parent = MetricsRegistry()
        parent.gauge("tier").set("direct")
        worker = MetricsRegistry()
        worker.gauge("tier")  # touched but never set
        parent.merge(worker)
        assert parent.gauge("tier").value == "direct"

    def test_bool_gauges_follow_last_writer_not_max(self):
        # True/False is a flag, not a magnitude: max() would pin it True
        # forever once any worker set it.
        parent = MetricsRegistry()
        parent.gauge("flag").set(True)
        worker = MetricsRegistry()
        worker.gauge("flag").set(False)
        parent.merge(worker)
        assert parent.gauge("flag").value is False

    def test_merge_rejects_mismatched_edges(self):
        parent = MetricsRegistry()
        parent.histogram("wall", edges=(0.1,))
        worker = MetricsRegistry()
        worker.histogram("wall", edges=(0.2,))
        with pytest.raises(ValueError):
            parent.merge(worker)

    def test_merge_into_empty_copies_histogram(self):
        parent = MetricsRegistry()
        parent.merge(self._populated())
        assert parent.histogram("wall").counts == [1, 1, 1]

    def test_summary_is_compact(self):
        summary = self._populated().summary()
        assert summary["counters"]["trials"] == 10
        wall = summary["histograms"]["wall"]
        assert wall["count"] == 3
        assert wall["mean"] == pytest.approx(2.55 / 3)
        assert "counts" not in wall
