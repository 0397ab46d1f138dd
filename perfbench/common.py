"""Shared helpers: sample statistics, output digests, memory and timing."""

import bisect
import hashlib
import json
import math
import os
import resource
import statistics
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

MIN_BEYOND_TAIL = 10
"""A tail percentile needs at least this many samples above it."""

REFERENCE_S = 0.0095
"""Seconds the reference kernel takes at the speed timed figures are scaled
to: about its median on the 2-vCPU Xeon (2.0 GHz) host the benchmark was
defined on."""

TICK_S = 0.25
"""Least wall time between two timings of the reference kernel."""

NEAR_S = 1.0
"""Kernel timings this close to a unit of work set its scale factor."""


def nproc() -> int:
    """Worker processes a pooled workload may use: the usable cores."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``p`` in percent)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def digest(payload) -> str:
    """SHA-256 of ``payload`` as canonical JSON (floats by ``repr``)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def vm_hwm_mb(pid) -> float:
    """Peak RSS so far of a live process (``"self"`` or a pid), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise ValueError(f"no VmHWM for process {pid}")


def _reference_kernel(data: np.ndarray) -> None:
    """Fixed interpreter and NumPy work that calls no program code."""
    counts: Dict[int, int] = {}
    for i in range(20000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    for _ in range(3):
        np.sort(np.abs(np.fft.rfft(data, axis=1)), axis=1)


class HostSpeed:
    """How fast the host runs, from a fixed kernel timed between units of work.

    A shared host's speed swings up to 2x within minutes, for all code
    alike, and CPU time follows wall time, so no statistic over one run
    removes it. The kernel is timed at most every :data:`TICK_S` between
    units of work, and :meth:`scaled` turns a unit's wall time into the
    time it would take were the kernel taking :data:`REFERENCE_S`. The
    kernel runs none of the program, so a change to the program moves
    scaled times as it moves wall times; load the program itself leaves
    running between units (a busy leftover process) would slow the
    kernel too and is not seen.
    """

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).standard_normal((32, 4096))
        self.times: List[float] = []
        self.seconds: List[float] = []

    def sample(self) -> None:
        """Time the kernel once."""
        start = time.perf_counter()
        _reference_kernel(self._data)
        end = time.perf_counter()
        self.times.append(end)
        self.seconds.append(end - start)

    def tick(self) -> None:
        """Time the kernel if :data:`TICK_S` has passed since the last time."""
        if not self.times or time.perf_counter() - self.times[-1] >= TICK_S:
            self.sample()

    def timed(self, fn: Callable, *args, **kwargs):
        """``(result, (start, end))`` of one call, after a :meth:`tick`."""
        self.tick()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, (start, time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """:data:`REFERENCE_S` over the mean kernel time near ``start`` to
        ``end``: the timings within :data:`NEAR_S` of it, and at least the
        last before it and the first after it."""
        if not self.times:
            raise ValueError("the reference kernel was never timed")
        first = min(
            bisect.bisect_left(self.times, start - NEAR_S),
            bisect.bisect_left(self.times, start) - 1,
        )
        last = max(
            bisect.bisect_right(self.times, end + NEAR_S),
            bisect.bisect_left(self.times, end) + 1,
        )
        return REFERENCE_S / mean(self.seconds[max(0, first):last])

    def scaled(self, start: float, end: float) -> float:
        """Wall seconds from ``start`` to ``end``, less the kernel's own
        timings within them, at the reference speed."""
        inside = sum(
            seconds
            for done, seconds in zip(self.times, self.seconds)
            if start <= done - seconds and done <= end
        )
        return (end - start - inside) * self.factor(start, end)


def timed(fn: Callable, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def repeat_for(seconds: float, step: Callable[[], None], minimum: int = 1) -> int:
    """Call ``step`` until ``seconds`` have passed (at least ``minimum``
    times); returns the number of calls."""
    deadline = time.perf_counter() + seconds
    calls = 0
    while calls < minimum or time.perf_counter() < deadline:
        step()
        calls += 1
    return calls


def latency_stats(samples_s: List[float], p: float) -> Dict[str, float]:
    """Median and ``p``-th percentile of per-operation latencies, in ms.

    A workload fixes ``p`` (so every run reports the same percentile) and
    runs enough operations that at least :data:`MIN_BEYOND_TAIL` lie
    beyond it; fewer is a benchmark error.
    """
    n = len(samples_s)
    if n - max(1, math.ceil(p / 100.0 * n)) < MIN_BEYOND_TAIL:
        raise ValueError(f"{n} samples cannot support a p{p} tail")
    return {
        "p50_ms": median(samples_s) * 1e3,
        "tail_ms": percentile(samples_s, p) * 1e3,
        "tail_percentile": p,
        "n": n,
    }
