"""Counters, gauges and fixed-bucket histograms for the runtime.

A :class:`MetricsRegistry` is a named bag of metrics with three properties
the Monte-Carlo runtime needs:

* **get-or-create access** -- ``registry.counter("trials.processed")``
  works from any layer without pre-registration;
* **serialization** -- :meth:`MetricsRegistry.to_dict` /
  :meth:`from_dict` round-trip through JSON, so worker processes can ship
  their registries back over the pool-result path;
* **merging** -- :meth:`MetricsRegistry.merge` combines a worker's
  registry into the parent's (counters add, histograms add bucket-wise,
  numeric gauges take the maximum, non-numeric gauges last-writer), which
  is what makes ``--timings`` and ``--metrics-out`` complete under
  ``--workers N``.

Gauge merge semantics are pinned deterministic: **numeric gauges merge by
maximum**, which is commutative, so the merged value is independent of the
order worker registries arrive in.  Non-numeric gauges (mode strings,
labels) have no commutative combine; they stay **last-writer-wins**, and
the runner makes that deterministic by merging worker payloads in span
order (submission order), never completion order.

Histograms use *fixed* bucket edges declared at first creation; merging
registries with mismatched edges is an error, not a silent re-bin.
"""

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class Counter:
    """Monotonically increasing count."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """Last-write-wins scalar (e.g. worker count, chosen tier)."""

    value: Any = None

    def set(self, value: Any) -> None:
        self.value = value


@dataclass
class Histogram:
    """Fixed-bucket-edge distribution of observed values.

    Bucket ``i`` counts values ``v`` with ``edges[i-1] <= v < edges[i]``;
    bucket 0 is ``v < edges[0]`` and the last (overflow) bucket is
    ``v >= edges[-1]``, so there are ``len(edges) + 1`` buckets.

    Attributes:
        edges: Strictly increasing bucket boundaries (immutable).
        counts: Per-bucket observation counts.
        total / count: Sum and number of observed values.
        minimum / maximum: Observed extremes (None before any value).
    """

    edges: Tuple[float, ...]
    counts: List[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def __post_init__(self) -> None:
        self.edges = tuple(float(edge) for edge in self.edges)
        if len(self.edges) < 1:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError(f"edges must strictly increase, got {self.edges}")
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)
        elif len(self.counts) != len(self.edges) + 1:
            raise ValueError(
                f"{len(self.edges)} edges need {len(self.edges) + 1} "
                f"buckets, got {len(self.counts)}"
            )

    def observe(self, value: float) -> None:
        """Record one value."""
        value = float(value)
        self.counts[bisect_right(self.edges, value)] += 1
        self.total += value
        self.count += 1
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of values: vectorized, and bit for bit one
        :meth:`observe` per value (the total is a running sum)."""
        if not hasattr(values, "__len__"):
            values = list(values)
        array = np.asarray(values, dtype=float).ravel()
        if array.size == 0:
            return
        indices = np.searchsorted(self.edges, array, side="right")
        buckets = np.bincount(indices, minlength=len(self.counts))
        self.counts[:] = [
            count + added
            for count, added in zip(self.counts, buckets.tolist())
        ]
        self.total = float(np.cumsum(np.append(self.total, array))[-1])
        self.count += int(array.size)
        low, high = float(array.min()), float(array.max())
        self.minimum = low if self.minimum is None else min(self.minimum, low)
        self.maximum = high if self.maximum is None else max(self.maximum, high)

    @property
    def mean(self) -> float:
        """Average of observed values (0 before any observation)."""
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named counters/gauges/histograms with merge + JSON round-trip."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first access."""
        return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first access."""
        return self._gauges.setdefault(name, Gauge())

    def histogram(
        self, name: str, edges: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram named ``name``.

        ``edges`` is required on first access and, when passed again, must
        match the registered edges exactly -- buckets are part of the
        metric's identity.
        """
        existing = self._histograms.get(name)
        if existing is not None:
            if edges is not None and tuple(float(e) for e in edges) != existing.edges:
                raise ValueError(
                    f"histogram {name!r} registered with edges "
                    f"{existing.edges}, got {tuple(edges)}"
                )
            return existing
        if edges is None:
            raise ValueError(f"histogram {name!r} needs edges on first access")
        histogram = Histogram(edges=tuple(edges))
        self._histograms[name] = histogram
        return histogram

    def counters(self) -> Dict[str, float]:
        """Counter values by name (a copy)."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of every metric."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "edges": list(histogram.edges),
                    "counts": list(histogram.counts),
                    "total": histogram.total,
                    "count": histogram.count,
                    "min": histogram.minimum,
                    "max": histogram.maximum,
                }
                for name, histogram in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MetricsRegistry":
        """Inverse of :meth:`to_dict`."""
        registry = cls()
        for name, value in (payload.get("counters") or {}).items():
            registry.counter(name).inc(float(value))
        for name, value in (payload.get("gauges") or {}).items():
            registry.gauge(name).set(value)
        for name, data in (payload.get("histograms") or {}).items():
            registry._histograms[name] = Histogram(
                edges=tuple(data["edges"]),
                counts=[int(v) for v in data["counts"]],
                total=float(data["total"]),
                count=int(data["count"]),
                minimum=data.get("min"),
                maximum=data.get("max"),
            )
        return registry

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (worker -> parent direction).

        Counters and histograms accumulate; histogram bucket edges must
        match.  Gauges merge deterministically (see the module docstring):
        numeric values combine by ``max`` -- commutative, so any worker
        merge order yields the same result -- while non-numeric values
        stay last-writer-wins (the runner merges in span order, which
        pins "last" independent of pool completion order).
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            if gauge.value is None:
                continue
            mine = self.gauge(name)
            if (
                isinstance(gauge.value, (int, float))
                and not isinstance(gauge.value, bool)
                and isinstance(mine.value, (int, float))
                and not isinstance(mine.value, bool)
            ):
                mine.set(max(mine.value, gauge.value))
            else:
                mine.set(gauge.value)
        for name, theirs in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = Histogram(
                    edges=theirs.edges,
                    counts=list(theirs.counts),
                    total=theirs.total,
                    count=theirs.count,
                    minimum=theirs.minimum,
                    maximum=theirs.maximum,
                )
                continue
            if mine.edges != theirs.edges:
                raise ValueError(
                    f"cannot merge histogram {name!r}: edges differ "
                    f"({mine.edges} vs {theirs.edges})"
                )
            mine.counts = [a + b for a, b in zip(mine.counts, theirs.counts)]
            mine.total += theirs.total
            mine.count += theirs.count
            for bound in (theirs.minimum,):
                if bound is not None:
                    mine.minimum = (
                        bound if mine.minimum is None else min(mine.minimum, bound)
                    )
            for bound in (theirs.maximum,):
                if bound is not None:
                    mine.maximum = (
                        bound if mine.maximum is None else max(mine.maximum, bound)
                    )

    def merge_dict(self, payload: Dict[str, Any]) -> None:
        """Merge a :meth:`to_dict` snapshot (the pool-result wire form)."""
        self.merge(MetricsRegistry.from_dict(payload))

    def summary(self) -> Dict[str, Any]:
        """Compact summary for run manifests and report tables."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "count": histogram.count,
                    "mean": histogram.mean,
                    "min": histogram.minimum,
                    "max": histogram.maximum,
                }
                for name, histogram in sorted(self._histograms.items())
            },
        }
